"""Kernel backend selection.

The compiled extension is preferred when importable; the pure-Python twin
is the fallback. Set ``PROXILEAK_PURE=1`` to force the fallback (the
benchmark's kernel timing does, to time each backend). Both backends
produce bit-identical results, so the choice only affects speed.
"""

import os

from . import _kernels_py as _pure

try:
    from . import _kernels as _compiled
except ImportError:
    _compiled = None

impl = (_pure if _compiled is None or os.environ.get("PROXILEAK_PURE", "") == "1"
        else _compiled)
BACKEND = "compiled" if impl is _compiled else "pure-python"


def available_backends():
    """Name -> kernel module for every importable backend."""
    out = {"pure-python": _pure}
    if _compiled is not None:
        out["compiled"] = _compiled
    return out
