"""The size of the public surface, pinned.

Two counts, each of which only a deliberate change should move:

* public defaults: parameters with a default value, over the functions
  named in the ``__all__`` of grid, localization, states, resolvent,
  scattering and dynamics (classes are not counted);
* ``cli._KNOWN_KEYS``: the config keys the CLI accepts, besides
  ``model.vector.<j>``.

A change that moves either count updates its pin here and says why in
CHANGES.md.

The import footprint is held too: the CLI loads no scipy module, and
neither the point-spectrum search nor the analytic-density functional adds
one.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


_IMPORT_PROBE = """
import math, sys
import numpy as np
import friedrichs.cli
import friedrichs as fr
scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
print(scipy())
print('scipy.linalg.lapack' in sys.modules)
print('numpy.polynomial' in sys.modules, 'numpy.fft' in sys.modules)
grid = fr.make_grid(16.0, 512)
x = grid.position_nodes()
v = fr.grid_function(grid, (1.5 * math.sqrt(math.pi)) ** -0.5 * (x - 1.0) * np.exp(-0.5 * x * x))
model = fr.finite_rank_model(grid, [v], [1.5])
print(len(fr.point_spectrum(model).eigenvalues))
bump = fr.make_localization('smooth_bump', delta=0.5, width=0.5)
gauss = fr.build_propagator(fr.finite_rank_model(grid, [fr.gaussian_state(grid)], [1.0]))
fr.sojourn(gauss, fr.gaussian_state(grid, -4.0, 1.0, momentum=1.5), bump, 4.0)
print(scipy())
print('numpy.ma' in sys.modules)
for dens in (fr.gaussian_momentum_density(1.5, 0.05), fr.indicator_momentum_density((1.0, 2.0))):
    fr.propagation_functional(dens, bump, 4.0)
print(scipy())
print([m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules])
"""


def test_import_leaves_optional_scipy_unloaded():
    # scipy is optional: the secular equation is solved in-repo, so none of
    # it loads with the CLI or on the point-spectrum and analytic-density
    # paths, and CubicSpline (file() vectors) loads where it is used.
    # numpy's polynomial and fft submodules load with the package, so their
    # cost is set-up rather than the first call's.  numpy.ma never loads on
    # the timed paths under numpy 2.4, whose np.unique, np.setdiff1d and
    # np.median import it on first use; other numpy releases load it on their
    # own schedule, so only 2.4 is held to that.  statistics (with fractions
    # and decimal) never loads: the sweep takes its median by sorting
    env = dict(os.environ, PYTHONPATH=str(Path(friedrichs.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    lines = out.stdout.split("\n")
    assert lines[:5] + lines[6:8] == ["[]", "False", "True True", "1", "[]", "[]", "[]"]
    if np.__version__.startswith("2.4."):
        assert lines[5] == "False"
