"""Kernel backend selection.

The compiled extension (``_fast.c``) is preferred when it built
successfully; the pure-Python lane (``_pure``) has the same semantics, bit
for bit, and is selected at import time when the extension is absent.
Both raise NumericError for a result that is not an ordered pair, and
ZeroDivisionError for a kdiv divisor containing 0.
"""

try:
    from ._fast import BACKEND, kadd, kdiv, kmul, ksub
except ImportError:  # extension not built on this platform
    from ._pure import BACKEND, kadd, kdiv, kmul, ksub

__all__ = ["BACKEND", "kadd", "ksub", "kmul", "kdiv"]
