"""Import budget: only the wave-operator build loads scipy's ODE/quadrature stack.

Every module needs numpy and scipy.linalg. scipy.integrate, whose package
init also loads scipy.optimize and scipy.special, and scipy.interpolate load
on first use inside `waveop`, so a process that never builds a wave operator
does not pay their start-up time and memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import kolmoflow

DEFERRED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.special")

PROBE = f"""
import importlib, json, pkgutil, sys
import numpy as np
import kolmoflow
deferred = {DEFERRED!r}
def loaded():
    return sorted(m for m in deferred if m in sys.modules)
names = sorted(m.name for m in pkgutil.iter_modules(kolmoflow.__path__))
for name in names:
    importlib.import_module("kolmoflow." + name)
after_import = loaded()
from kolmoflow import waveop
waveop.get_wave_operator(2.0, 16)
after_build = loaded()
y = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
mask = np.ones(16, bool)
mask[3] = False
waveop.fill_masked(np.cos(y), mask, y)
print(json.dumps({{"modules": names, "after_import": after_import,
                   "after_build": after_build, "after_fill": loaded()}}))
"""


def test_deferred_scipy_modules_load_only_on_use():
    src = str(Path(kolmoflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {"acceptance", "cli", "dns", "evolution", "pseudospectra", "spectral",
            "waveop"} <= set(out["modules"])
    assert out["after_import"] == []
    assert "scipy.integrate" in out["after_build"]
    assert "scipy.interpolate" in out["after_fill"]
