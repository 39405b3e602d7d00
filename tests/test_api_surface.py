"""The size of the public surface, pinned.

Two counts, each of which only a deliberate change should move:

* public defaults: parameters with a default value, over the functions
  named in the ``__all__`` of grid, localization, states, resolvent,
  scattering and dynamics (classes are not counted);
* ``cli._KNOWN_KEYS``: the config keys the CLI accepts, besides
  ``model.vector.<j>``.

A change that moves either count updates its pin here and says why in
CHANGES.md.

The import footprint is held too: the CLI loads no scipy module that only
an optional path needs, and neither the point-spectrum search nor the
analytic-density functional adds one.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import friedrichs
from friedrichs import cli

_MODULES = ("grid", "localization", "states", "resolvent", "scattering", "dynamics")


def _public_defaults():
    count = 0
    for name in _MODULES:
        module = importlib.import_module(f"friedrichs.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj):
                count += sum(p.default is not p.empty
                             for p in inspect.signature(obj).parameters.values())
    return count


def test_public_default_count_is_pinned():
    assert _public_defaults() == 31


def test_cli_key_count_is_pinned():
    assert len(cli._KNOWN_KEYS) == 25


_OPTIONAL_SCIPY = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")

_IMPORT_PROBE = """
import math, sys
import numpy as np
import friedrichs.cli
import friedrichs as fr
print(sorted(m for m in {optional} if m in sys.modules))
print('scipy.linalg.lapack' in sys.modules)
grid = fr.make_grid(16.0, 512)
x = grid.position_nodes()
v = fr.grid_function(grid, (1.5 * math.sqrt(math.pi)) ** -0.5 * (x - 1.0) * np.exp(-0.5 * x * x))
print(len(fr.point_spectrum(fr.finite_rank_model(grid, [v], [1.5])).eigenvalues))
print('scipy.optimize' in sys.modules)
bump = fr.make_localization('smooth_bump', delta=0.5, width=0.5)
for dens in (fr.gaussian_momentum_density(1.5, 0.05), fr.indicator_momentum_density((1.0, 2.0))):
    fr.propagation_functional(dens, bump, 4.0)
print('scipy.integrate' in sys.modules)
"""


def test_import_leaves_optional_scipy_unloaded():
    # dlasd4 is the only scipy every path needs; CubicSpline (file()
    # vectors) loads where it is used, and the point-spectrum refine and the
    # analytic-density functional are in-repo, so their cost is gone rather
    # than moved from start-up into the first call
    env = dict(os.environ, PYTHONPATH=str(Path(friedrichs.__file__).parents[1]))
    code = _IMPORT_PROBE.format(optional=_OPTIONAL_SCIPY)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split("\n")[:5] == ["[]", "True", "1", "False", "False"]
