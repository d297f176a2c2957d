"""Kernel backend selection.

The compiled extension (``_fast.c``) is preferred when it built
successfully; the pure-Python lane (``_pure``) has the same semantics, bit
for bit, and is selected at import time when the extension is absent.
"""

try:
    from ._fast import BACKEND, kadd, kdiv, kmul, ksub, next_down, next_up
except ImportError:  # extension not built on this platform
    from ._pure import BACKEND, kadd, kdiv, kmul, ksub, next_down, next_up

__all__ = ["BACKEND", "kadd", "ksub", "kmul", "kdiv", "next_down", "next_up"]
