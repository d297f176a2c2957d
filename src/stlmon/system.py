"""Parameterized ODE systems and the model-file format.

A system is (params u, vars x, domain U x X, init box, flow F).  Model
files are line-oriented with sections [params], [vars], [init], [flow];
see the bundled examples under ``stlmon/models``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import ModelError
from .expr import (
    Expr,
    ExprParser,
    Param,
    Token,
    Tokenizer,
    Var,
    decimal_text,
    expr_to_str,
    free_divisions,
    literal_bounds,
    number_text,
)
from .interval import Interval, IntervalBox
from .taylor import compile_flow, eval_box

__all__ = ["ContinuousSystem", "parse_model", "format_model", "load_builtin", "BUILTIN_MODELS"]


@dataclass(frozen=True)
class ContinuousSystem:
    param_names: tuple[str, ...]
    var_names: tuple[str, ...]
    u_domain: IntervalBox
    x_domain: IntervalBox
    x_init: IntervalBox
    flow: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.flow) != len(self.var_names):
            raise ModelError("flow dimension does not match variable count")
        if not self.x_domain.contains_box(self.x_init):
            raise ModelError("initial box is not contained in the state domain")
        self._check_divisions()

    def _check_divisions(self) -> None:
        # load-time conservative check: denominators must exclude 0 over
        # X x U; inner ones come first, so each is evaluated only once the
        # denominators inside it are known to exclude 0
        box = list(self.x_domain.ivs) + list(self.u_domain.ivs)
        for f in self.flow:
            for den in free_divisions(f):
                (iv,) = eval_box(compile_flow((den,), self.n_vars, self.n_params), box)
                if iv.lo <= 0.0 <= iv.hi:
                    raise ModelError(
                        f"denominator {expr_to_str(den)} may vanish over the domain"
                    )

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def resolver(self, allow_params: bool = True):
        """Identifier resolver for expressions over this system."""
        return _resolver(self.param_names if allow_params else (), self.var_names)


def _resolver(param_names: tuple, var_names: tuple):
    """Maps a declared name to its Param or Var node; any other name is
    a ModelError at its token."""
    params = {n: i for i, n in enumerate(param_names)}
    variables = {n: i for i, n in enumerate(var_names)}

    def resolve(name: str, tok: Token) -> Expr:
        if name in variables:
            return Var(variables[name], name)
        if name in params:
            return Param(params[name], name)
        raise ModelError(f"undeclared identifier {name!r}", tok.line, tok.col)

    return resolve


def _parse_number(tz: Tokenizer) -> Fraction:
    sign = 1
    while True:
        if tz.accept("-"):
            sign = -sign
        elif tz.accept("+"):
            pass
        else:
            break
    tok = tz.next()
    if tok.kind != "num":
        raise ModelError(f"expected a number, found {tok.text!r}", tok.line, tok.col)
    return sign * Fraction(tok.text)


def _parse_interval(tz: Tokenizer, inward: bool = False) -> Interval:
    """[lo, hi] rounded outward to doubles, or inward for a state domain:
    the domain check must not accept a box that leaves the domain as
    written."""
    tz.expect("[")
    lo = _parse_number(tz)
    tz.expect(",")
    hi = _parse_number(tz)
    tz.expect("]")
    if lo > hi:
        raise ModelError(f"domain bounds out of order: [{decimal_text(lo)}, {decimal_text(hi)}]")
    (lo_lo, lo_hi), (hi_lo, hi_hi) = literal_bounds(lo), literal_bounds(hi)
    if not inward:
        return Interval(lo_lo, hi_hi)
    if lo_hi > hi_lo:
        raise ModelError(
            f"no double lies in the state domain [{decimal_text(lo)}, {decimal_text(hi)}]"
        )
    return Interval(lo_hi, hi_lo)


def parse_model(text: str) -> ContinuousSystem:
    """Parse the model-file format into a validated system."""
    sections = {"params": [], "vars": [], "init": [], "flow": []}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        rest = line.strip()
        if not rest:
            continue
        if rest.startswith("["):
            close = rest.find("]")
            name = rest[1:close].strip() if close > 0 else ""
            if name not in sections:
                raise ModelError(f"unknown section [{name}]", lineno, 1)
            current = name
            rest = rest[close + 1:].strip()
            if not rest:
                continue
        if current is None:
            raise ModelError("declaration outside any section", lineno, 1)
        sections[current].append((lineno, rest))

    params: list[tuple[str, Interval]] = []
    for lineno, decl in sections["params"]:
        params.append(_parse_domain_decl(decl, lineno))
    variables: list[tuple[str, Interval]] = []
    for lineno, decl in sections["vars"]:
        variables.append(_parse_domain_decl(decl, lineno, inward=True))

    if not variables:
        raise ModelError("a model needs at least one variable")
    _check_distinct([n for n, _ in params] + [n for n, _ in variables])

    param_names = tuple(n for n, _ in params)
    var_names = tuple(n for n, _ in variables)
    var_index = {n: i for i, n in enumerate(var_names)}

    init_ivs: dict[str, Interval] = {}
    for lineno, decl in sections["init"]:
        tz = Tokenizer(decl, line_offset=lineno)
        name_tok = tz.next()
        if name_tok.kind != "ident" or name_tok.text not in var_index:
            raise ModelError(
                f"init declares unknown variable {name_tok.text!r}", name_tok.line, name_tok.col
            )
        if tz.accept("="):
            init_ivs[name_tok.text] = Interval(*literal_bounds(_parse_number(tz)))
        else:
            tz.expect("in")
            init_ivs[name_tok.text] = _parse_interval(tz)
        _expect_end(tz)
    missing = [n for n in var_names if n not in init_ivs]
    if missing:
        raise ModelError(f"missing init for {', '.join(missing)}")

    flows: dict[str, Expr] = {}
    resolve = _resolver(param_names, var_names)
    for lineno, decl in sections["flow"]:
        tz = Tokenizer(decl, line_offset=lineno)
        name_tok = tz.next()
        if name_tok.kind != "ident" or name_tok.text not in var_index:
            raise ModelError(
                f"flow declares unknown variable {name_tok.text!r}", name_tok.line, name_tok.col
            )
        tz.expect("'")
        tz.expect("=")
        flows[name_tok.text] = ExprParser(tz, resolve).parse_sum()
        _expect_end(tz)
    missing = [n for n in var_names if n not in flows]
    if missing:
        raise ModelError(f"missing flow for {', '.join(missing)}")

    return ContinuousSystem(
        param_names=param_names,
        var_names=var_names,
        u_domain=IntervalBox(iv for _, iv in params),
        x_domain=IntervalBox(iv for _, iv in variables),
        x_init=IntervalBox(init_ivs[n] for n in var_names),
        flow=tuple(flows[n] for n in var_names),
    )


def _parse_domain_decl(decl: str, lineno: int, inward: bool = False) -> tuple[str, Interval]:
    tz = Tokenizer(decl, line_offset=lineno)
    name_tok = tz.next()
    if name_tok.kind != "ident":
        raise ModelError(f"expected a name, found {name_tok.text!r}", name_tok.line, name_tok.col)
    tz.expect("in")
    iv = _parse_interval(tz, inward)
    _expect_end(tz)
    return name_tok.text, iv


def _expect_end(tz: Tokenizer) -> None:
    tok = tz.peek()
    if tok is not None:
        raise ModelError(f"trailing input {tok.text!r}", tok.line, tok.col)


def _check_distinct(names: list[str]) -> None:
    seen = set()
    for n in names:
        if n in seen:
            raise ModelError(f"duplicate declaration of {n!r}")
        seen.add(n)


def format_model(sys: ContinuousSystem) -> str:
    """Inverse of parse_model (up to whitespace); used for round-trip checks."""
    def box(iv: Interval) -> str:
        return f"[{number_text(iv.lo)}, {number_text(iv.hi)}]"

    lines = []
    if sys.param_names:
        lines.append("[params]")
        for n, iv in zip(sys.param_names, sys.u_domain):
            lines.append(f"  {n} in {box(iv)}")
    lines.append("[vars]")
    for n, iv in zip(sys.var_names, sys.x_domain):
        lines.append(f"  {n} in {box(iv)}")
    lines.append("[init]")
    for n, iv in zip(sys.var_names, sys.x_init):
        if iv.is_point():
            lines.append(f"  {n} = {number_text(iv.lo)}")
        else:
            lines.append(f"  {n} in {box(iv)}")
    lines.append("[flow]")
    for n, f in zip(sys.var_names, sys.flow):
        lines.append(f"  {n}' = {expr_to_str(f)}")
    return "\n".join(lines) + "\n"


BUILTIN_MODELS = ("rotation", "lorenz", "timer")


def load_builtin(name: str) -> ContinuousSystem:
    if name not in BUILTIN_MODELS:
        raise ModelError(f"unknown builtin model {name!r}")
    text = resources.files("stlmon").joinpath(f"models/{name}.model").read_text()
    return parse_model(text)
