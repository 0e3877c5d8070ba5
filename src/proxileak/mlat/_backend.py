"""Kernel backend selection.

The compiled extension is preferred when importable; the pure-Python twin
is the fallback. Set ``PROXILEAK_PURE=1`` to force the fallback (the
benchmark's kernel timing does, to time each backend). Both backends
produce bit-identical results, so the choice only affects speed.
"""

import os

from . import _kernels_py as _pure

_compiled = None
if os.environ.get("PROXILEAK_PURE", "") != "1":
    try:
        from . import _kernels as _compiled  # type: ignore[no-redef]
    except ImportError:
        _compiled = None

impl = _compiled if _compiled is not None else _pure
BACKEND = "compiled" if _compiled is not None else "pure-python"


def available_backends():
    """Name -> kernel module for every importable backend."""
    out = {"pure-python": _pure}
    try:
        from . import _kernels
        out["compiled"] = _kernels
    except ImportError:
        pass
    return out
