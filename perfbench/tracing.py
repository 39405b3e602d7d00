"""Outside-in layer tracing: spans recorded around the package's public functions.

The benchmark does not instrument the package's source.  Instead it wraps
selected public functions and rebinds the wrapper in every module namespace
that holds the original, so calls made through ``from .x import f`` bindings,
lazy imports inside function bodies and recursive calls through the module
global all land in a span.  `install` refuses to return while any binding of
an original survives, so a call cannot escape its span silently.

Spans stay in memory as ``[name, start, end, parent, workload]`` lists and
are written out when the run ends.  A span's self time is its duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# Public functions wrapped in a traced run, as ``<module>.<function>`` of the
# ``friedrichs`` package.  Each is a layer boundary the per-layer metrics name.
TARGETS = (
    "cli.run_experiment",
    "dynamics.build_propagator",
    "dynamics.wave_operator",
    "dynamics.sojourn",
    "dynamics.time_delay_sweep",
    "dynamics.propagation_functional",
    "resolvent.finite_rank_model",
    "resolvent.point_spectrum",
    "resolvent.perturbation_determinant",
    "resolvent.boundary_matrix",
    "scattering.compute_curve",
    "scattering.s_matrix_chain",
    "scattering.spectral_shift_density_determinant",
    "scattering.apply_scattering",
    "scattering.ew_time_delay",
    "grid.transform",
    "grid.evaluate_many",
    "grid.certify_support",
)

# Work counts read off a traced function's return value: target -> (stat, fn).
COUNTERS = {
    "scattering.compute_curve": ("energies", lambda curve: int(curve.energies.size)),
}

NAME, START, END, PARENT, WORKLOAD = range(5)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, workload: str = "", clock=time.perf_counter, counters=None):
        self.workload = workload
        self.clock = clock
        self.counters = counters or {}
        self.spans: list = []
        self.last_result: dict = {}
        self.counts: dict = defaultdict(int)
        self._stack: list = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.workload])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span; keeps its last return value and counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            self.last_result[name] = result
            if name in self.counters:
                stat, count = self.counters[name]
                self.counts[f"{name}.{stat}"] += count(result)
            return result

        return traced


def _holders(value):
    """The object itself plus the members of a module-level container."""
    yield value
    if isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value


def install(tracer: Tracer, modules: dict, targets=TARGETS) -> list:
    """Wrap each target and rebind it in every module that holds it.

    ``modules`` maps short module names (``"dynamics"``, and ``""`` for the
    package itself) to module objects; targets name a function by
    ``<module>.<function>`` of its defining module.  Returns the rebound
    ``(module, attribute, target)`` triples.  Raises RuntimeError if any
    original is still reachable from a module namespace afterwards.
    """
    originals = {}
    for target in targets:
        mod_name, _, fn_name = target.rpartition(".")
        fn = getattr(modules[mod_name], fn_name)
        originals[id(fn)] = (target, fn, tracer.wrap(target, fn))
    rebound = []
    for mod_name, module in modules.items():
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[1] is value:
                setattr(module, attr, hit[2])
                rebound.append((mod_name, attr, hit[0]))
    missed = [f"{mod_name}.{attr} -> {originals[id(item)][0]}"
              for mod_name, module in modules.items()
              for attr, value in vars(module).items()
              for item in _holders(value)
              if id(item) in originals and originals[id(item)][1] is item]
    if missed:
        raise RuntimeError("traced functions still bound untraced: " + ", ".join(missed))
    return rebound


def self_times(spans: list) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered, reach = 0.0, lo
        for a, b in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def layer_stats(spans: list) -> dict:
    """Per span name: outermost calls, all attempts, self and total seconds.

    A call whose parent span has the same name is a retry of that call
    (recursion through the module global), so it counts as an attempt but
    not as a call.
    """
    selfs = self_times(spans)
    stats = defaultdict(lambda: {"calls": 0, "attempts": 0, "self_s": 0.0, "total_s": 0.0})
    for s, own in zip(spans, selfs):
        st = stats[s[NAME]]
        st["attempts"] += 1
        st["self_s"] += own
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != s[NAME]:
            st["calls"] += 1
            st["total_s"] += s[END] - s[START]
    return dict(stats)
