"""Kernel backend selection.

The compiled extension (``_fast.c``) is preferred when it built
successfully; the pure-Python lane (``_pure``) has the same semantics, bit
for bit, and is selected at import time when the extension is absent.
Besides the four pair kernels, each lane has two fused kernels over
sequences of (lo, hi) pairs, one call per evaluation: kdot, a sum of
pair products, and khorner, a Horner evaluation of pair vectors.  Both
lanes raise NumericError for a result, a fused partial result or a kdiv
divisor that is not an ordered pair, and ZeroDivisionError for a kdiv
divisor containing 0.
"""

try:
    from ._fast import BACKEND, kadd, kdiv, kdot, khorner, kmul, ksub
except ImportError:  # extension not built on this platform
    from ._pure import BACKEND, kadd, kdiv, kdot, khorner, kmul, ksub

__all__ = ["BACKEND", "kadd", "ksub", "kmul", "kdiv", "kdot", "khorner"]
