"""Command-line experiment runner.

Reads a flat key/value config, assembles the grid, model, localization
profile and state it names, dispatches one of the named experiments, and
writes deterministic CSV artifacts plus a plain-text summary of every
invariant checked and its residual.

Config format: one ``section.key = value`` assignment per line.  Blank
lines and lines starting with ``#`` are ignored; duplicate keys are an
error; lists are comma separated.  Recognized keys:

    grid.L, grid.M                  box half width and node count
    model.N                         perturbation rank (0 is allowed)
    model.lambdas                   N coupling constants
    model.vector.<j>                gaussian(center, width) | hermite(n) |
                                    file(path), 1-based j; file() points at a
                                    whitespace-separated table x re [im]
    model.mu                        decay certificate exponent (default inf)
    localization.kind               indicator | smooth_bump
    localization.J                  indicator window a, b  (a = -b)
    localization.delta              smooth_bump plateau half width
    localization.width              smooth_bump shoulder width
    localization.rho                smooth_bump declared decay exponent (> 1);
                                    the support radius is delta + width
    state.family                    gaussian | bump | hermite |
                                    momentum-indicator | gaussian-density |
                                    indicator-density (densities are for the
                                    propagation experiment only)
    state.center, state.width       gaussian / hermite shape
    state.momentum                  gaussian boost
    state.support                   bump support a, b
    state.power                     bump flatness exponent (default 1)
    state.n                         hermite index
    state.band                      momentum band a, b
    experiment.name                 optional; must match the subcommand
    experiment.energy-grid          lo, hi, n (default: widened state support)
    experiment.r-list               dilation scales for sweeps / propagation
    experiment.tolerance            sojourn / propagation tolerance
    experiment.exclusions           auto | none (default: auto for the
                                    time-delay sweep, none elsewhere)
    experiment.route                propagation route: closedform | direct
    experiment.scan                 point-spectrum scan lo, hi, n
    experiment.threshold            point-spectrum determinant threshold
    output.directory                artifact directory (--out overrides)
    output.precision                significant digits (default 12)

Exit status: 0 on success, 2 when a named precondition fails, 3 when a
tolerance cannot be met.  Rerunning the same config at the same BLAS
thread count reproduces every output byte for byte; nothing here depends
on wall-clock or ordering.  Across thread counts every experiment but
timedelay-sweep stays byte-identical.  On the demo config the sweep's
CSV rows and wave_operator_route_gap are byte-identical between 1 and 2
threads; fit_residual, abs_gap, rel_gap and tau_free_gap_at_largest_r
differ by at most 2e-14, as the full sojourns move at round-off with the
thread count.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from ._errors import PointSpectrumProximity, ToleranceError, ValidationError
from .dynamics import build_propagator, propagation_functional, time_delay_sweep
from .grid import Representation, grid_function, transform
from .localization import localization_integral, make_localization
from .resolvent import _interior, _scan_triple, finite_rank_model, point_spectrum
from .scattering import _state_scattering, compute_curve, state_support
from .states import (
    bump_state,
    gaussian_momentum_density,
    gaussian_state,
    hermite_state,
    indicator_momentum_density,
    momentum_indicator_state,
)

_SCHEMA_LINE = "# schema-version: 1"
_DEFAULT_PRECISION = 12
_BOX_MARGIN = 1.0  # referenced supports must keep this distance from +-L

_CURVE_COLUMNS = ("x", "Re_S", "Im_S", "Re_Sprime", "Im_Sprime",
                  "delay_density", "xi_prime")
_SWEEP_COLUMNS = ("r", "T0", "T0_S", "T_full", "tau_in", "tau_sym",
                  "tau_free", "tail_est")

_KNOWN_KEYS = {
    "grid.L", "grid.M",
    "model.N", "model.lambdas", "model.mu",
    "localization.kind", "localization.J", "localization.delta",
    "localization.width", "localization.rho",
    "state.family", "state.center", "state.width", "state.momentum",
    "state.support", "state.power", "state.n", "state.band",
    "experiment.name", "experiment.energy-grid", "experiment.r-list",
    "experiment.tolerance", "experiment.exclusions", "experiment.route",
    "experiment.scan", "experiment.threshold",
    "output.directory", "output.precision",
}
_VECTOR_KEY = re.compile(r"model\.vector\.[1-9][0-9]*\Z")


# ---------------------------------------------------------------------------
# config file parsing

def _parse_config(path: Path) -> dict:
    """Read ``section.key = value`` lines into a flat string dict."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc.strerror}") from None
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(
                f"{path.name}:{lineno}: expected 'section.key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if "." not in key:
            raise ValidationError(
                f"{path.name}:{lineno}: key {key!r} is missing its section prefix")
        if key in cfg:
            raise ValidationError(f"{path.name}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ValidationError(f"{key}: empty value")
        cfg[key] = value
    return cfg


def _check_vocabulary(cfg: dict) -> None:
    for key in cfg:
        if key not in _KNOWN_KEYS and not _VECTOR_KEY.match(key):
            raise ValidationError(f"unknown config key {key!r}")


def _need(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise ValidationError(f"{key}: required for this experiment")
    return cfg[key]


def _as_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{key}: expected a number, got {text!r}") from None


def _as_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{key}: expected an integer, got {text!r}") from None


def _float_list(key: str, text: str, count: int | None = None) -> list:
    parts = [p.strip() for p in text.split(",")]
    if count is not None and len(parts) != count:
        raise ValidationError(f"{key}: expected {count} entries, got {len(parts)}")
    return [_as_float(key, p) for p in parts]


# ---------------------------------------------------------------------------
# assembling package objects from config values

def _build_grid(cfg: dict):
    from .grid import make_grid

    L = _as_float("grid.L", _need(cfg, "grid.L"))
    M = _as_int("grid.M", _need(cfg, "grid.M"))
    try:
        return make_grid(L, M)
    except ValidationError as exc:
        raise ValidationError(f"grid: {exc}") from None


_VECTOR_SPEC = re.compile(r"([a-z][a-z-]*)\s*\((.*)\)\Z")


def _vector_from_file(grid, key: str, path_text: str, base: Path):
    from scipy.interpolate import CubicSpline

    path = Path(path_text)
    if not path.is_absolute():
        path = base / path
    try:
        data = np.loadtxt(path, ndmin=2)
    except OSError:
        raise ValidationError(f"{key}: cannot read table {path}") from None
    except ValueError as exc:
        raise ValidationError(f"{key}: malformed table {path}: {exc}") from None
    if data.shape[1] not in (2, 3):
        raise ValidationError(f"{key}: table needs columns x, re[, im]")
    xs = data[:, 0]
    if xs.size < 4 or np.any(np.diff(xs) <= 0):
        raise ValidationError(
            f"{key}: abscissae must be strictly increasing, at least 4 points")
    vals = data[:, 1].astype(complex)
    if data.shape[1] == 3:
        vals = vals + 1j * data[:, 2]
    spline = CubicSpline(xs, vals, extrapolate=False)
    samples = np.asarray(spline(grid.position_nodes()))
    samples[np.isnan(samples)] = 0.0  # outside the tabulated range
    return grid_function(grid, samples)


def _build_vector(grid, key: str, text: str, base: Path):
    m = _VECTOR_SPEC.match(text)
    if not m:
        raise ValidationError(
            f"{key}: expected gaussian(center, width), hermite(n) or file(path)")
    name, args = m.group(1), m.group(2)
    if name == "gaussian":
        c, w = _float_list(key, args, count=2)
        return gaussian_state(grid, center=c, width=w)
    if name == "hermite":
        return hermite_state(grid, _as_int(key, args.strip()))
    if name == "file":
        return _vector_from_file(grid, key, args.strip(), base)
    raise ValidationError(f"{key}: unknown vector family {name!r}")


def _build_model(cfg: dict, grid, base: Path):
    N = _as_int("model.N", _need(cfg, "model.N"))
    if N < 0:
        raise ValidationError("model.N: rank must be nonnegative")
    mu = _as_float("model.mu", cfg.get("model.mu", "inf"))

    if N == 0:
        if "model.lambdas" in cfg:
            raise ValidationError("model.lambdas: must be absent when model.N = 0")
        lambdas, vectors = [], []
    else:
        lambdas = _float_list("model.lambdas", _need(cfg, "model.lambdas"))
        if len(lambdas) != N:
            raise ValidationError(
                f"model.lambdas: expected model.N = {N} entries, got {len(lambdas)}")
        vectors = []
        for j in range(1, N + 1):
            key = f"model.vector.{j}"
            vectors.append(_build_vector(grid, key, _need(cfg, key), base))
    for key in cfg:
        if _VECTOR_KEY.match(key) and int(key.rsplit(".", 1)[1]) > N:
            raise ValidationError(f"{key}: index exceeds model.N = {N}")

    try:
        model = finite_rank_model(grid, vectors, lambdas, mu=mu)
    except ValidationError as exc:
        raise ValidationError(f"model: {exc}") from None
    if model.rank > 0 and mu < 5.0:
        warnings.warn(
            f"model.mu = {mu:g} is below the sweep hypothesis mu >= 5; "
            "tail bounds may be optimistic", stacklevel=2)
    return model


def _build_localization(cfg: dict):
    kind = _need(cfg, "localization.kind")
    if kind not in ("indicator", "smooth_bump"):
        raise ValidationError(
            f"localization.kind: expected indicator or smooth_bump, got {kind!r}")
    try:
        if kind == "indicator":
            a, b = _float_list("localization.J", _need(cfg, "localization.J"), count=2)
            return make_localization("indicator", J=(a, b))
        return make_localization(
            "smooth_bump",
            delta=_as_float("localization.delta", _need(cfg, "localization.delta")),
            width=_as_float("localization.width", _need(cfg, "localization.width")),
            rho=_as_float("localization.rho", _need(cfg, "localization.rho")))
    except ValidationError as exc:
        msg = str(exc)
        if msg.startswith("localization."):
            raise
        raise ValidationError(f"localization: {msg}") from None


def _require_inside_box(key: str, lo: float, hi: float, L: float) -> None:
    if not (-L + _BOX_MARGIN <= lo and hi <= L - _BOX_MARGIN):
        raise ValidationError(
            f"{key}: support [{lo:g}, {hi:g}] must lie inside the box "
            f"(-{L:g}, {L:g}) with margin {_BOX_MARGIN:g}")


def _build_state(cfg: dict, grid, densities: bool):
    family = _need(cfg, "state.family")
    L = grid.half_width
    try:
        if family == "gaussian":
            c = _as_float("state.center", cfg.get("state.center", "0"))
            w = _as_float("state.width", cfg.get("state.width", "1"))
            k0 = _as_float("state.momentum", cfg.get("state.momentum", "0"))
            _require_inside_box("state.center", c - 6 * w, c + 6 * w, L)
            return gaussian_state(grid, center=c, width=w, momentum=k0)
        if family == "bump":
            a, b = _float_list("state.support", _need(cfg, "state.support"), count=2)
            power = _as_int("state.power", cfg.get("state.power", "1"))
            _require_inside_box("state.support", a, b, L)
            return bump_state(grid, (a, b), power=power)
        if family == "hermite":
            n = _as_int("state.n", _need(cfg, "state.n"))
            c = _as_float("state.center", cfg.get("state.center", "0"))
            w = _as_float("state.width", cfg.get("state.width", "1"))
            reach = 6 * w * math.sqrt(2 * n + 1)
            _require_inside_box("state.center", c - reach, c + reach, L)
            return hermite_state(grid, n, center=c, width=w)
        if family == "momentum-indicator":
            a, b = _float_list("state.band", _need(cfg, "state.band"), count=2)
            return momentum_indicator_state(grid, (a, b))
        if densities and family == "gaussian-density":
            k0 = _as_float("state.momentum", cfg.get("state.momentum", "0"))
            w = _as_float("state.width", cfg.get("state.width", "1"))
            return gaussian_momentum_density(momentum=k0, width=w)
        if densities and family == "indicator-density":
            a, b = _float_list("state.band", _need(cfg, "state.band"), count=2)
            return indicator_momentum_density((a, b))
    except ValidationError as exc:
        msg = str(exc)
        if msg.startswith("state."):
            raise
        raise ValidationError(f"state: {msg}") from None
    raise ValidationError(f"state.family: unknown family {family!r}")


def _lo_hi_n(key: str, text: str) -> tuple:
    """A ``lo, hi, n`` value: two numbers and an integer point count."""
    lo, hi, _ = _float_list(key, text, count=3)
    return lo, hi, _as_int(key, text.split(",")[2].strip())


def _energy_grid(cfg: dict, grid, phi):
    """(lo, hi), points: explicit key, else a widened state support."""
    if "experiment.energy-grid" in cfg:
        lo, hi, n = _lo_hi_n("experiment.energy-grid", cfg["experiment.energy-grid"])
        if not lo < hi:
            raise ValidationError("experiment.energy-grid: needs lo < hi")
        if n < 4:
            raise ValidationError("experiment.energy-grid: needs at least 4 points")
        try:
            _interior(grid, [lo, hi])
        except ValidationError as exc:
            raise ValidationError(f"experiment.energy-grid: {exc}") from None
        return (lo, hi), n
    if phi is None:
        raise ValidationError(
            "experiment.energy-grid: required when no state fixes the span")
    a, b = state_support(phi)
    return (a - 0.5, b + 0.5), 1001


def _exclusions(cfg: dict, model, default: str):
    mode = cfg.get("experiment.exclusions", default)
    if mode == "none":
        return ()
    if mode == "auto":
        ps = point_spectrum(model)
        return tuple(zip(ps.eigenvalues, ps.radii))
    raise ValidationError(
        f"experiment.exclusions: expected auto or none, got {mode!r}")


def _r_list(cfg: dict) -> list:
    rs = _float_list("experiment.r-list", _need(cfg, "experiment.r-list"))
    if not rs or any(r <= 0 for r in rs):
        raise ValidationError("experiment.r-list: scales must be positive")
    return sorted(rs)


# ---------------------------------------------------------------------------
# artifact writing

def _fmt(value, prec: int) -> str:
    v = float(value)
    if v == 0.0:
        v = 0.0  # fold -0.0 so reruns cannot flip the sign bit in text
    return f"{v:.{prec}g}"


def _write_csv(path: Path, columns, rows, prec: int, footer=()) -> None:
    lines = [_SCHEMA_LINE, ",".join(columns)]
    lines.extend(",".join(_fmt(v, prec) for v in row) for row in rows)
    lines.extend(footer)
    path.write_text("\n".join(lines) + "\n")


def _curve_rows(curve):
    return [(x, s.real, s.imag, sp.real, sp.imag, dd, xd)
            for x, s, sp, dd, xd in zip(curve.energies, curve.s, curve.s_prime,
                                        curve.delay_density, curve.shift_density)]


def _describe_exclusions(excl, prec: int) -> str:
    if not excl:
        return "none"
    return "; ".join(f"({_fmt(e, prec)}, {_fmt(rad, prec)})" for e, rad in excl)


def _mean_momentum(state) -> float:
    """2<P> reference for the propagation functional."""
    if hasattr(state, "mean"):
        return 2.0 * float(state.mean)
    ft = state if state.representation is Representation.MOMENTUM else transform(state)
    k = state.grid.momentum_nodes()
    dens = np.abs(ft.samples) ** 2
    return 2.0 * float(state.grid.momentum_spacing * np.sum(k * dens))


# ---------------------------------------------------------------------------
# experiments
#
# Each experiment is an (assemble, execute) pair: assemble does every
# precondition check so --check can stop there; execute runs the heavy
# computation and writes artifacts.

def _assemble_smatrix(cfg: dict, base: Path) -> dict:
    """Context for the smatrix and spectral-shift experiments."""
    grid = _build_grid(cfg)
    model = _build_model(cfg, grid, base)
    phi = _build_state(cfg, grid, densities=False) if "state.family" in cfg else None
    span, npts = _energy_grid(cfg, grid, phi)
    excl = _exclusions(cfg, model, default="none")
    return {"model": model, "phi": phi, "span": span, "npts": npts, "excl": excl}


def _curve_summary(ctx: dict, prec: int, head: list) -> tuple:
    """The context's scattering curve and its summary lines after head."""
    curve = compute_curve(ctx["model"], ctx["span"], ctx["npts"],
                          exclusions=ctx["excl"])
    lines = head + [
        f"energy-points = {curve.energies.size}",
        f"exclusions = {_describe_exclusions(curve.exclusions, prec)}",
    ]
    lines += [f"{k} = {_fmt(v, prec)}" for k, v in curve.residuals().items()]
    return curve, lines


def _execute_smatrix(ctx: dict, outdir: Path, prec: int):
    curve, lines = _curve_summary(ctx, prec, [
        "experiment = smatrix",
        f"model.N = {ctx['model'].rank}",
        f"energy-grid = {_fmt(ctx['span'][0], prec)}, "
        f"{_fmt(ctx['span'][1], prec)}, {ctx['npts']}",
    ])
    path = outdir / "smatrix.csv"
    _write_csv(path, _CURVE_COLUMNS, _curve_rows(curve), prec)
    return [path], lines


def _execute_spectral_shift(ctx: dict, outdir: Path, prec: int):
    curve, lines = _curve_summary(ctx, prec, [
        "experiment = spectral-shift",
        f"model.N = {ctx['model'].rank}",
    ])
    path = outdir / "spectral-shift.csv"
    rows = list(zip(curve.energies, curve.shift_density, curve.delay_density))
    _write_csv(path, ("x", "xi_prime", "delay_density"), rows, prec)
    phi = ctx["phi"]
    if phi is not None:
        # state-weighted consistency: the expected delay against the
        # determinant-route shift density integrated over the support
        _, ew, shift, _ = _state_scattering(curve.model, phi, curve.exclusions)
        integral = -2.0 * math.pi * shift
        lines += [
            f"ew_time_delay = {_fmt(ew, prec)}",
            f"shift_route_integral = {_fmt(integral, prec)}",
            f"state_integral_residual = {_fmt(abs(ew - integral), prec)}",
        ]
    return [path], lines


def _assemble_propagation(cfg: dict, base: Path) -> dict:
    grid = _build_grid(cfg)
    f = _build_localization(cfg)
    state = _build_state(cfg, grid, densities=True)
    rs = _r_list(cfg)
    route = cfg.get("experiment.route", "closedform")
    if route not in ("closedform", "direct"):
        raise ValidationError(
            f"experiment.route: expected closedform or direct, got {route!r}")
    if route == "direct" and hasattr(state, "mean"):
        raise ValidationError(
            "experiment.route: direct integration needs a grid state, "
            "not a momentum density")
    tol = cfg.get("experiment.tolerance")
    if tol is not None:
        tol = _as_float("experiment.tolerance", tol)
    return {"f": f, "state": state, "rs": rs, "route": route, "tol": tol}


def _execute_propagation(ctx: dict, outdir: Path, prec: int):
    kwargs = {} if ctx["tol"] is None else {"tol": ctx["tol"]}
    rows = [(r, propagation_functional(ctx["state"], ctx["f"], r,
                                       ctx["route"], **kwargs))
            for r in ctx["rs"]]
    path = outdir / "propagation.csv"
    _write_csv(path, ("r", "I_r"), rows, prec)
    ref = _mean_momentum(ctx["state"])
    lines = [
        "experiment = propagation",
        f"route = {ctx['route']}",
        f"profile_integral = {_fmt(float(np.real(localization_integral(ctx['f']))), prec)}",
        f"reference_2P = {_fmt(ref, prec)}",
        f"I_at_largest_r = {_fmt(rows[-1][1], prec)}",
        f"deviation_at_largest_r = {_fmt(abs(rows[-1][1] - ref), prec)}",
    ]
    return [path], lines


def _assemble_point_spectrum(cfg: dict, base: Path) -> dict:
    grid = _build_grid(cfg)
    model = _build_model(cfg, grid, base)
    scan = None
    if "experiment.scan" in cfg:
        scan = _lo_hi_n("experiment.scan", cfg["experiment.scan"])
        try:
            _scan_triple(grid, scan)
        except ValidationError as exc:
            raise ValidationError(f"experiment.scan: {exc}") from None
    threshold = _as_float("experiment.threshold",
                          cfg.get("experiment.threshold", "1e-6"))
    if not threshold > 0:
        raise ValidationError("experiment.threshold: must be positive")
    return {"model": model, "scan": scan, "threshold": threshold}


def _execute_point_spectrum(ctx: dict, outdir: Path, prec: int):
    ps = point_spectrum(ctx["model"], scan=ctx["scan"],
                        threshold=ctx["threshold"])
    path = outdir / "point-spectrum.csv"
    rows = list(zip(ps.eigenvalues, ps.radii))
    _write_csv(path, ("eigenvalue", "radius"), rows, prec)
    lines = [
        "experiment = point-spectrum",
        f"model.N = {ctx['model'].rank}",
        f"determinant_threshold = {_fmt(ctx['threshold'], prec)}",
        f"eigenvalues_found = {len(rows)}",
    ]
    return [path], lines


def _assemble_sweep(cfg: dict, base: Path) -> dict:
    grid = _build_grid(cfg)
    model = _build_model(cfg, grid, base)
    f = _build_localization(cfg)
    phi = _build_state(cfg, grid, densities=False)
    rs = _r_list(cfg)
    tol = _as_float("experiment.tolerance", cfg.get("experiment.tolerance", "1e-6"))
    if not tol > 0:
        raise ValidationError("experiment.tolerance: must be positive")
    span, npts = _energy_grid(cfg, grid, phi)
    excl = _exclusions(cfg, model, default="auto")
    return {"model": model, "f": f, "phi": phi, "rs": rs,
            "tol": tol, "span": span, "npts": npts, "excl": excl}


def _execute_sweep(ctx: dict, outdir: Path, prec: int):
    curve = compute_curve(ctx["model"], ctx["span"], ctx["npts"],
                          exclusions=ctx["excl"])
    prop = build_propagator(ctx["model"])
    records, summary = time_delay_sweep(prop, curve, ctx["phi"], ctx["f"],
                                        ctx["rs"], tol=ctx["tol"])
    footer = [f"# {key} = {_fmt(summary[key], prec)}"
              for key in ("tau_inf", "beta", "fit_residual", "ew_value",
                          "rel_gap")]
    rows = [(rec.r, rec.T0, rec.T0_S, rec.T, rec.tau_in, rec.tau_sym,
             rec.tau_free, rec.tail_estimate) for rec in records]
    path = outdir / "timedelay-sweep.csv"
    _write_csv(path, _SWEEP_COLUMNS, rows, prec, footer=footer)

    # definitional identities are exact by construction; state them with
    # their measured residuals anyway so the summary is self-auditing
    def_in = max(abs(rec.T - rec.T0 - rec.tau_in) for rec in records)
    def_sym = max(abs(rec.T - 0.5 * (rec.T0 + rec.T0_S) - rec.tau_sym)
                  for rec in records)
    sym = max(abs(rec.T0_S - rec.T0) for rec in records)
    free_gap = abs(records[-1].tau_free - records[-1].tau_in)
    lines = [
        "experiment = timedelay-sweep",
        f"model.N = {ctx['model'].rank}",
        f"r-list = {', '.join(_fmt(r, prec) for r in ctx['rs'])}",
        f"tolerance = {_fmt(ctx['tol'], prec)}",
        f"exclusions = {_describe_exclusions(curve.exclusions, prec)}",
    ]
    lines += [f"{k} = {_fmt(v, prec)}" for k, v in curve.residuals().items()]
    lines += [
        f"tau_in_identity_residual = {_fmt(def_in, prec)}",
        f"tau_sym_identity_residual = {_fmt(def_sym, prec)}",
        f"free_sojourn_symmetry_residual = {_fmt(sym, prec)}",
        f"tau_free_gap_at_largest_r = {_fmt(free_gap, prec)}",
        f"tail_estimate_max = {_fmt(max(rec.tail_estimate for rec in records), prec)}",
        f"zeta_measured = {_fmt(summary['zeta_measured'], prec)}",
        f"wave_operator_route_gap = {_fmt(summary['wave_operator_route_gap'], prec)}",
        f"tau_inf = {_fmt(summary['tau_inf'], prec)}",
        f"beta = {_fmt(summary['beta'], prec)}",
        f"fit_residual = {_fmt(summary['fit_residual'], prec)}",
        f"fit_ok = {summary['fit_ok']}",
        f"ew_value = {_fmt(summary['ew_value'], prec)}",
        f"abs_gap = {_fmt(summary['abs_gap'], prec)}",
        f"rel_gap = {_fmt(summary['rel_gap'], prec)}",
    ]
    return [path], lines


_EXPERIMENTS = {
    "smatrix": (_assemble_smatrix, _execute_smatrix),
    "spectral-shift": (_assemble_smatrix, _execute_spectral_shift),
    "propagation": (_assemble_propagation, _execute_propagation),
    "point-spectrum": (_assemble_point_spectrum, _execute_point_spectrum),
    "timedelay-sweep": (_assemble_sweep, _execute_sweep),
}


# ---------------------------------------------------------------------------
# driver

def run_experiment(name: str, config_path, out_dir=None, check: bool = False):
    """Run one named experiment; returns the list of files written."""
    if name not in _EXPERIMENTS:
        raise ValidationError(
            f"unknown experiment {name!r}; choose from {sorted(_EXPERIMENTS)}")
    path = Path(config_path)
    cfg = _parse_config(path)
    _check_vocabulary(cfg)
    declared = cfg.get("experiment.name")
    if declared is not None and declared != name:
        raise ValidationError(
            f"experiment.name: config names {declared!r} but the "
            f"{name!r} subcommand was invoked")
    prec = _as_int("output.precision", cfg.get("output.precision",
                                               str(_DEFAULT_PRECISION)))
    if not 2 <= prec <= 17:
        raise ValidationError("output.precision: expected 2..17 significant digits")
    outdir = Path(out_dir) if out_dir is not None else Path(
        cfg.get("output.directory", "out"))

    assemble, execute = _EXPERIMENTS[name]
    notes = []
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ctx = assemble(cfg, path.parent)
            if check:
                files, lines = [], None
            else:
                outdir.mkdir(parents=True, exist_ok=True)
                files, lines = execute(ctx, outdir, prec)
    finally:
        # surface warnings even when the experiment itself raised
        seen = set()
        for w in caught:
            msg = str(w.message)
            if msg not in seen:
                seen.add(msg)
                notes.append(msg)
        for msg in notes:
            print(f"warning: {msg}", file=sys.stderr)
    if check:
        return []
    lines.extend(f"warning: {msg}" for msg in notes)
    summary_path = outdir / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n")
    files.append(summary_path)
    return files


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friedrichs",
        description="Experiment runner for the finite-rank scattering workbench.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides output.directory)")
        p.add_argument("--check", action="store_true",
                       help="validate the config and exit without computing")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        files = run_experiment(args.experiment, args.config, args.out,
                               check=args.check)
    except (ValidationError, PointSpectrumProximity) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.check:
        print(f"config ok: {args.experiment}")
    else:
        for f in files:
            print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
