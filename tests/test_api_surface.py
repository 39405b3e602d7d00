"""The size of the public surface, pinned.

Two counts, each of which only a deliberate change should move:

* public defaults: parameters with a default value, over the functions
  named in the ``__all__`` of grid, localization, states, resolvent,
  scattering and dynamics (classes are not counted);
* ``cli._KNOWN_KEYS``: the config keys the CLI accepts, besides
  ``model.vector.<j>``.

A change that moves either count updates its pin here and says why in
CHANGES.md.
"""

import importlib
import inspect

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
