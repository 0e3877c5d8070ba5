"""The package names README.md cites by dotted path exist.

A backticked ``module.attr`` whose first part is a module of ``proxileak``
must resolve by import, so a rename or a move out of the package cannot
leave the README pointing at nothing. Per-layer metric names that
``BENCHMARK.json`` lists (such as ``mlat.kernel_us_per_iter.*``) look the
same and are skipped.
"""

import fnmatch
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import proxileak

ROOT = Path(__file__).resolve().parents[1]

MODULES = {m.name for m in pkgutil.iter_modules(proxileak.__path__)}
METRICS = [m["name"] for m in
           json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _cited_names() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set()
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[\w*]+)+)`", text):
        if (name.split(".")[0] in MODULES
                and not fnmatch.filter(METRICS, name)):
            names.add(name)
    return sorted(names)


@pytest.mark.parametrize("name", _cited_names())
def test_readme_name_resolves(name):
    first, *rest = name.split(".")
    obj = importlib.import_module(f"proxileak.{first}")
    for attr in rest:
        assert hasattr(obj, attr), f"README.md cites {name}; {attr} is missing"
        obj = getattr(obj, attr)
