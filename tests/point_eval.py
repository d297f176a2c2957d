"""A plain float walk over expression trees, the reference that point
simulations in the tests compare interval results against."""

import math

from stlmon.expr import Add, Const, Cos, Div, Exp, Expr, Mul, Neg, Param, Pow, Sin, Sub, Var


def eval_point(e: Expr, u, x) -> float:
    """Float value at parameter values u and state x: the plain float
    evaluation that point simulations compare interval results against."""
    t = type(e)
    if t is Const:
        return e.value
    if t is Param:
        return u[e.index]
    if t is Var:
        return x[e.index]
    if t is Add:
        return eval_point(e.a, u, x) + eval_point(e.b, u, x)
    if t is Sub:
        return eval_point(e.a, u, x) - eval_point(e.b, u, x)
    if t is Mul:
        return eval_point(e.a, u, x) * eval_point(e.b, u, x)
    if t is Div:
        return eval_point(e.a, u, x) / eval_point(e.b, u, x)
    if t is Pow:
        return eval_point(e.base, u, x) ** e.exponent
    if t is Sin:
        return math.sin(eval_point(e.arg, u, x))
    if t is Cos:
        return math.cos(eval_point(e.arg, u, x))
    if t is Exp:
        return math.exp(eval_point(e.arg, u, x))
    if t is Neg:
        return -eval_point(e.arg, u, x)
    raise TypeError(f"unknown expression node {e!r}")
