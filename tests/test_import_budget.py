"""Import budget: importing the package must not pull in heavy scipy parts.

``scipy.stats`` and ``scipy.spatial`` cost about 1 s and 45 MB to
import, and each has a single lazy caller (``streams/stats.py`` and
``core/baselines.py``).  ``scipy.special`` is needed only by the
Gaussian kernel's CDF (``core/kernels.py``, the numpy backend, and the
synthetic generators), and is most of what ``import repro`` would
otherwise cost.  A fresh interpreter keeps all three out of
``sys.modules`` until one of those callers runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SUBPACKAGES = sorted(path.parent.name for path in
                     Path(repro.__file__).parent.glob("*/__init__.py"))
LAZY_MODULES = ("scipy.stats", "scipy.spatial", "scipy.special")


def test_import_leaves_heavy_scipy_modules_unloaded():
    assert "detectors" in SUBPACKAGES and "engine" in SUBPACKAGES
    imports = "; ".join(["import repro"] + [f"import repro.{name}"
                                             for name in SUBPACKAGES])
    script = (f"{imports}; import json, sys; "
              f"print(json.dumps([m for m in {LAZY_MODULES!r} "
              f"if m in sys.modules]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parent.parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout.strip().splitlines()[-1]) == []
