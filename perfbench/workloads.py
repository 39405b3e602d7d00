"""The three seeded workloads: input generation, execution and correctness gate.

Each workload has three parts:

* ``generate(seed)`` draws plain numbers and text from the seed alone.  The
  package never sees the seed, only what is generated here.
* ``build(fr, inputs, workdir)`` constructs models and states (set-up).
* ``execute(fr, built)`` computes the workload and returns its checks, each a
  ``Check`` held to an existing acceptance bound.  A structural failure
  raises ``GateFailure``.

The grid is L = 16, M = 2048 throughout, so seeds change the inputs but not
the size of the work.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID_L = 16.0
GRID_M = 2048
CURVE_SPAN = (-6.0, 6.0)
CURVE_POINTS = 1001
R_LIST = (4, 8, 16, 32, 64)
_TINY = 1e-300  # residual floor, so an exact zero has a finite margin


class GateFailure(Exception):
    """A structural check failed: fit_ok false or a wrong eigenvalue count."""


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    bound: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.bound

    @property
    def margin(self) -> float:
        """Decades of headroom, log10(bound / residual)."""
        return math.log10(self.bound / max(self.residual, _TINY))


def accuracy_margin(checks) -> float:
    return min(c.margin for c in checks)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _signed(rng, n, lo, hi):
    signs = rng.choice(np.array([-1.0, 1.0]), size=n)
    return [float(v) for v in signs * rng.uniform(lo, hi, size=n)]


def _unitarity(curve) -> float:
    return float(np.max(np.abs(np.abs(curve.s) - 1.0)))


def _birman_krein(curve) -> float:
    return float(np.max(np.abs(curve.delay_density + 2.0 * math.pi * curve.shift_density)))


# ---------------------------------------------------------------------------
# sweep

def generate_sweep(seed: int) -> dict:
    """Config text for one flagship time-delay sweep."""
    rng = _rng(seed, 1)
    lam = _signed(rng, 1, 0.8, 1.2)[0]
    c = float(rng.uniform(0.4, 0.6))
    config = "\n".join([
        f"grid.L = {GRID_L!r}",
        f"grid.M = {GRID_M}",
        "model.N = 1",
        f"model.lambdas = {lam!r}",
        "model.vector.1 = gaussian(0, 1)",
        "localization.kind = indicator",
        "localization.J = -1, 1",
        "state.family = bump",
        f"state.support = {c - 0.25!r}, {c + 0.25!r}",
        "experiment.name = timedelay-sweep",
        f"experiment.energy-grid = {CURVE_SPAN[0]!r}, {CURVE_SPAN[1]!r}, {CURVE_POINTS}",
        "experiment.r-list = " + ", ".join(str(r) for r in R_LIST),
        "experiment.tolerance = 1e-06",
        "experiment.exclusions = auto",
    ]) + "\n"
    return {"config": config}


def build_sweep(fr, inputs: dict, workdir: Path) -> dict:
    cfg = workdir / "sweep.cfg"
    cfg.write_text(inputs["config"])
    return {"config": cfg, "out": workdir / "sweep-out"}


def _read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def sweep_checks(summary: dict, rows: list) -> list:
    """AC-7, AC-8 and the curve invariants from a sweep's artifacts."""
    if summary.get("fit_ok") != "True":
        raise GateFailure(f"AC-8: fit_ok = {summary.get('fit_ok')}")
    tau_gap = max(abs(float(r["tau_in"]) - float(r["tau_sym"])) for r in rows)
    return [
        Check("AC-7 tau_in-tau_sym", tau_gap, 1e-6),
        Check("AC-7 T0(S phi)-T0(phi)",
              float(summary["free_sojourn_symmetry_residual"]), 1e-6),
        Check("AC-8 rel_gap", float(summary["rel_gap"]), 2e-2),
        Check("unitarity", float(summary["unitarity_residual"]), 1e-8),
        Check("birman_krein", float(summary["birman_krein_residual"]), 1e-6),
    ]


def execute_sweep(fr, built: dict) -> list:
    fr.cli.run_experiment("timedelay-sweep", built["config"], built["out"])
    summary = _read_summary(built["out"] / "summary.txt")
    with open(built["out"] / "timedelay-sweep.csv", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return sweep_checks(summary, list(csv.DictReader(lines)))


# ---------------------------------------------------------------------------
# stationary

def generate_stationary(seed: int) -> dict:
    """Couplings for ranks 1..3, 50 boundary energies per rank, a bump centre."""
    rng = _rng(seed, 2)
    return {
        "couplings": {n: _signed(rng, n, 0.3, 1.2) for n in (1, 2, 3)},
        "energies": {n: [float(x) for x in rng.uniform(-5.0, 5.0, size=50)]
                     for n in (1, 2, 3)},
        "bump_center": float(rng.uniform(0.4, 0.6)),
    }


def build_stationary(fr, inputs: dict, workdir: Path) -> dict:
    grid = fr.make_grid(GRID_L, GRID_M)
    models = {}
    for n, lams in inputs["couplings"].items():
        vecs = [fr.hermite_state(grid, j) for j in range(n)]
        models[n] = fr.finite_rank_model(grid, vecs, lams)
    c = inputs["bump_center"]
    return {"models": models, "energies": inputs["energies"],
            "bump": fr.bump_state(grid, (c - 0.25, c + 0.25))}


def execute_stationary(fr, built: dict) -> list:
    checks = []
    for n, model in built["models"].items():
        curve = fr.compute_curve(model, CURVE_SPAN, CURVE_POINTS)
        checks.append(Check(f"AC-2 N={n} unitarity", _unitarity(curve), 1e-8))
        chain = np.array([fr.s_matrix_chain(model, float(x)) for x in curve.energies])
        checks.append(Check(f"AC-3 N={n} stationary-chain",
                            float(np.max(np.abs(curve.s - chain))), 1e-8))
        jump = conj = 0.0
        for x in built["energies"][n]:
            plus = fr.boundary_matrix(model, x, "plus").matrix
            minus = fr.boundary_matrix(model, x, "minus").matrix
            vx = np.array([fr.evaluate_many(v, [x])[0] for v in model.vectors])
            expected = 2j * math.pi * np.outer(np.conj(vx), vx)
            jump = max(jump, float(np.max(np.abs(plus - minus - expected))))
            conj = max(conj, float(np.max(np.abs(minus - plus.conj().T))))
        checks.append(Check(f"AC-4 N={n} plemelj_jump", jump, 1e-6))
        checks.append(Check(f"AC-4 N={n} conjugation", conj, 1e-6))
        if n == 1:
            checks.append(Check("AC-9 N=1 birman_krein", _birman_krein(curve), 1e-6))
            checks.append(Check("AC-9 N=1 integral_vs_ew",
                                _ac9_gap(fr, model, curve, built["bump"]), 1e-8))
    return checks


def _ac9_gap(fr, model, curve, phi) -> float:
    """|ew_time_delay - (-2 pi) int |phi|^2 xi'| by Gauss-Legendre."""
    ew = fr.ew_time_delay(curve, phi)
    a, b = fr.state_support(phi)
    nodes, weights = np.polynomial.legendre.leggauss(80)
    xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    w = 0.5 * (b - a) * weights
    dens = np.abs(fr.evaluate_many(phi, xs)) ** 2
    xi = fr.spectral_shift_density_determinant(model, xs)
    return abs(ew - (-2.0 * math.pi * float(np.sum(w * dens * xi))))


# ---------------------------------------------------------------------------
# spectrum

def generate_spectrum(seed: int) -> dict:
    """Planted embedded eigenvalue a, and couplings of a generic rank-2 model."""
    rng = _rng(seed, 3)
    return {"a": float(rng.uniform(0.6, 1.7)),
            "generic_couplings": _signed(rng, 2, 0.3, 1.2)}


def build_spectrum(fr, inputs: dict, workdir: Path) -> dict:
    """v = c (x - a) e^{-x^2/2} with lambda = (1/2 + a^2)/a has eigenvalue a."""
    grid = fr.make_grid(GRID_L, GRID_M)
    a = inputs["a"]
    x = grid.position_nodes()
    c = (math.sqrt(math.pi) * (0.5 + a * a)) ** -0.5
    v = fr.grid_function(grid, c * (x - a) * np.exp(-0.5 * x * x))
    embedded = fr.finite_rank_model(grid, [v], [(0.5 + a * a) / a])
    generic = fr.finite_rank_model(
        grid, [fr.hermite_state(grid, 0), fr.hermite_state(grid, 1)],
        inputs["generic_couplings"])
    return {"a": a, "embedded": embedded, "generic": generic}


def execute_spectrum(fr, built: dict) -> list:
    ps_emb = fr.point_spectrum(built["embedded"])
    ps_gen = fr.point_spectrum(built["generic"])
    if len(ps_emb.eigenvalues) != 1:
        raise GateFailure(f"AC-11: embedded model gave {len(ps_emb.eigenvalues)} "
                          "eigenvalues (want 1)")
    if ps_gen.eigenvalues:
        raise GateFailure(f"AC-11: generic model gave eigenvalues {ps_gen.eigenvalues}")
    checks = [Check("AC-11 planted eigenvalue",
                    abs(ps_emb.eigenvalues[0] - built["a"]), 1e-4)]
    for label, model, ps in (("embedded", built["embedded"], ps_emb),
                             ("generic", built["generic"], ps_gen)):
        curve = fr.compute_curve(model, CURVE_SPAN, CURVE_POINTS, exclusions=ps)
        checks += [Check(f"{label} unitarity", _unitarity(curve), 1e-8),
                   Check(f"{label} birman_krein", _birman_krein(curve), 1e-6)]
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: object
    build: object
    execute: object
    # (module, function) whose first call starts the timed computation; the
    # workload's own execute() starts it when this is None
    first_call: tuple | None = None


WORKLOADS = {
    "sweep": Workload(
        "sweep",
        "The flagship CLI time-delay sweep: the dense eigh, five full sojourns "
        "and Cook's wave operator dominate, so propagator work shows here.",
        generate_sweep, build_sweep, execute_sweep, ("cli", "point_spectrum")),
    "stationary": Workload(
        "stationary",
        "Curves, 3003 scalar chain-route calls and boundary matrices for "
        "N = 1..3: the resolvent and scattering layers with no propagator.",
        generate_stationary, build_stationary, execute_stationary),
    "spectrum": Workload(
        "spectrum",
        "Point-spectrum search on a planted embedded eigenvalue and a generic "
        "model: many small resolvent batches plus one confirming eigh.",
        generate_spectrum, build_spectrum, execute_spectrum),
}
