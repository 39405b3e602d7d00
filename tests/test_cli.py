"""Command-line contract: config parsing, exit codes, artifact layout."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import friedrichs
from friedrichs.cli import main

# frozen closed-form value for the rank-one unit-coupling Gaussian model,
# S(0) = (1 + conj(F)) / (1 + F) with F(0 + i0) = i * sqrt(pi)
S_ZERO = -0.5170939859895523 - 0.8559286241582508j


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GAUSSIAN_SMATRIX = """
grid.L = 16
grid.M = 2048
model.N = 1
model.lambdas = 1.0
model.vector.1 = gaussian(0, 1)
experiment.energy-grid = -2, 2, 201
"""


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema-version: 1"
    header = lines[1].split(",")
    body = [ln for ln in lines[2:] if not ln.startswith("#")]
    footer = [ln for ln in lines[2:] if ln.startswith("#")]
    rows = [[float(v) for v in ln.split(",")] for ln in body]
    return header, rows, footer


def test_smatrix_writes_curve_with_frozen_origin_value(tmp_path):
    cfg = write_cfg(tmp_path, GAUSSIAN_SMATRIX)
    out = tmp_path / "out"
    assert main(["smatrix", "--config", cfg, "--out", str(out)]) == 0
    header, rows, _ = read_rows(out / "smatrix.csv")
    assert header == ["x", "Re_S", "Im_S", "Re_Sprime", "Im_Sprime",
                      "delay_density", "xi_prime"]
    assert len(rows) == 201
    origin = min(rows, key=lambda row: abs(row[0]))
    assert origin[0] == 0.0
    assert origin[1] + 1j * origin[2] == pytest.approx(S_ZERO, abs=1e-10)
    # unitarity visible in the written digits as well
    mods = [abs(r[1] + 1j * r[2]) for r in rows]
    assert max(abs(m - 1.0) for m in mods) < 1e-10
    summary = (out / "summary.txt").read_text()
    assert "unitarity_residual" in summary
    assert "birman_krein_residual" in summary


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, GAUSSIAN_SMATRIX)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["smatrix", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["smatrix", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "smatrix.csv").read_bytes() == (out2 / "smatrix.csv").read_bytes()
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


HERMITE3_SMATRIX = """
grid.L = 16
grid.M = 1024
model.N = 3
model.lambdas = 0.8, -0.5, 0.3
model.vector.1 = hermite(0)
model.vector.2 = hermite(1)
model.vector.3 = hermite(2)
experiment.energy-grid = -2, 2, 201
"""


def test_smatrix_is_byte_identical_across_blas_thread_counts(tmp_path):
    # the rank-3 model runs the chirp-z read-out on nine pair-density columns
    src = str(Path(friedrichs.__file__).parents[1])
    for case, text in (("gaussian", GAUSSIAN_SMATRIX.replace("grid.M = 2048", "grid.M = 1024")),
                       ("hermite3", HERMITE3_SMATRIX)):
        cfg = write_cfg(tmp_path, text, f"{case}.cfg")
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "friedrichs.cli", "smatrix", "--config", cfg,
                            "--out", str(tmp_path / case / threads)],
                           env=env, check=True, timeout=300)
        for name in ("smatrix.csv", "summary.txt"):
            assert filecmp.cmp(tmp_path / case / "1" / name, tmp_path / case / "2" / name,
                               shallow=False)


def test_twelve_significant_digits_by_default(tmp_path):
    cfg = write_cfg(tmp_path, GAUSSIAN_SMATRIX)
    out = tmp_path / "out"
    main(["smatrix", "--config", cfg, "--out", str(out)])
    line = (out / "smatrix.csv").read_text().splitlines()[2]
    re_s = line.split(",")[1]
    mantissa = re_s.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) <= 12
    # a generic irrational value should carry full precision, not fewer digits
    assert len(mantissa) >= 11


def test_check_mode_validates_without_writing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSSIAN_SMATRIX)
    out = tmp_path / "out"
    assert main(["smatrix", "--config", cfg, "--out", str(out), "--check"]) == 0
    assert not out.exists()
    assert "config ok" in capsys.readouterr().out


def test_lambdas_length_mismatch_exits_2_naming_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
grid.L = 16
grid.M = 2048
model.N = 2
model.lambdas = 1.0
model.vector.1 = gaussian(0, 1)
model.vector.2 = hermite(1)
experiment.energy-grid = -2, 2, 201
""")
    assert main(["smatrix", "--config", cfg, "--check"]) == 2
    assert "model.lambdas" in capsys.readouterr().err


@pytest.mark.parametrize("line, field", [
    ("grid.M = 2049", "grid"),
    # retired keys are refused as unknown
    ("model.mu = -1", "model"),
    ("localization.rho = 3", "unknown config key 'localization.rho'"),
    ("state.power = 1", "unknown config key 'state.power'"),
    ("experiment.energy-grid = 2, -2, 201", "experiment.energy-grid"),
    ("experiment.energy-grid = -6, 6, , 1001",
     "experiment.energy-grid: expected 3 entries, got 4"),
    ("experiment.energy-grid = -6, 6, 1001,",
     "experiment.energy-grid: expected 3 entries, got 4"),
    ("output.precision = 40", "output.precision"),
    ("experiment.energy-grid = -15.9, 15.9, 101",
     "experiment.energy-grid: energy -15.9 is within 10 grid spacings"),
])
def test_bad_values_exit_2_and_name_the_field(tmp_path, capsys, line, field):
    base = GAUSSIAN_SMATRIX.replace("grid.M = 2048", "grid.M = 1024")
    key = line.split("=")[0].strip()
    kept = [ln for ln in base.splitlines() if not ln.startswith(key)]
    cfg = write_cfg(tmp_path, "\n".join(kept) + "\n" + line + "\n")
    assert main(["smatrix", "--config", cfg, "--check"]) == 2
    assert field in capsys.readouterr().err


def test_unknown_key_and_duplicates_are_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSSIAN_SMATRIX + "modle.N = 1\n")
    assert main(["smatrix", "--config", cfg, "--check"]) == 2
    assert "modle.N" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, GAUSSIAN_SMATRIX + "grid.L = 8\n", name="dup.cfg")
    assert main(["smatrix", "--config", cfg, "--check"]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_experiment_name_must_match_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSSIAN_SMATRIX + "experiment.name = smatrix\n")
    assert main(["spectral-shift", "--config", cfg, "--check"]) == 2
    assert "experiment.name" in capsys.readouterr().err


def test_zero_coupling_sweep_has_all_zero_tau_columns(tmp_path):
    cfg = write_cfg(tmp_path, """
grid.L = 16
grid.M = 2048
model.N = 0
localization.kind = indicator
localization.J = -1, 1
state.family = bump
state.support = 0.25, 0.75
experiment.r-list = 2, 4, 8
experiment.energy-grid = -1, 2, 301
""")
    out = tmp_path / "out"
    assert main(["timedelay-sweep", "--config", cfg, "--out", str(out)]) == 0
    header, rows, footer = read_rows(out / "timedelay-sweep.csv")
    assert header == ["r", "T0", "T0_S", "T_full", "tau_in", "tau_sym",
                      "tau_free", "tail_est"]
    for row in rows:
        assert row[4] == 0.0 and row[5] == 0.0 and row[6] == 0.0
    assert any(ln.startswith("# tau_inf = 0") for ln in footer)
    assert any(ln.startswith("# fit_residual = 0") for ln in footer)
    assert any(ln.startswith("# ew_value = 0") for ln in footer)
    assert "wave_operator_route_gap = 0\n" in (out / "summary.txt").read_text()


def test_propagation_exact_regime_writes_three(tmp_path):
    cfg = write_cfg(tmp_path, """
grid.L = 16
grid.M = 2048
localization.kind = indicator
localization.J = -1, 1
state.family = indicator-density
state.band = 1, 2
experiment.r-list = 2.5, 4, 10
""")
    out = tmp_path / "out"
    assert main(["propagation", "--config", cfg, "--out", str(out)]) == 0
    header, rows, _ = read_rows(out / "propagation.csv")
    assert header == ["r", "I_r"]
    for _, value in rows:
        assert value == pytest.approx(3.0, abs=1e-12)
    summary = (out / "summary.txt").read_text()
    assert "reference_2P = 3" in summary


def test_point_spectrum_empty_for_gaussian_model(tmp_path):
    cfg = write_cfg(tmp_path, """
grid.L = 16
grid.M = 2048
model.N = 1
model.lambdas = 1.0
model.vector.1 = gaussian(0, 1)
""")
    out = tmp_path / "out"
    assert main(["point-spectrum", "--config", cfg, "--out", str(out)]) == 0
    header, rows, _ = read_rows(out / "point-spectrum.csv")
    assert header == ["eigenvalue", "radius"]
    assert rows == []
    assert "eigenvalues_found = 0" in (out / "summary.txt").read_text()


def test_point_spectrum_scan_outside_the_box_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
grid.L = 16
grid.M = 512
model.N = 1
model.lambdas = 1.0
model.vector.1 = gaussian(0, 1)
experiment.scan = -10, 20, 201
""")
    out = tmp_path / "out"
    assert main(["point-spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert "experiment.scan: energy 20 is within 10 grid spacings" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scan, cause", [("1, 1, 201", "lo < hi"),
                                         ("-1, 1, 7", "at least 8 points")])
def test_point_spectrum_bad_scan_check_exits_2(tmp_path, capsys, scan, cause):
    cfg = write_cfg(tmp_path, f"""
grid.L = 16
grid.M = 512
model.N = 1
model.lambdas = 1.0
model.vector.1 = gaussian(0, 1)
experiment.scan = {scan}
""")
    assert main(["point-spectrum", "--config", cfg, "--check"]) == 2
    err = capsys.readouterr().err
    assert "experiment.scan: " in err and cause in err


def test_unattainable_tolerance_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
grid.L = 16
grid.M = 512
model.N = 1
model.lambdas = 1.0
model.vector.1 = gaussian(0, 1)
localization.kind = indicator
localization.J = -1, 1
state.family = bump
state.support = 0.25, 0.75
experiment.r-list = 4
experiment.energy-grid = -1, 2, 201
experiment.tolerance = 1e-15
""")
    assert main(["timedelay-sweep", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 3
    assert "tolerance" in capsys.readouterr().err


def test_unsettled_sweep_warns_in_the_summary_and_on_stderr(tmp_path, capsys):
    # r = 4, 8 on the flagship model: the last gap 4.4e-5 lies far above
    # the 4.4e-7 floor of its two sojourns' tails
    cfg = write_cfg(tmp_path, """
grid.L = 16
grid.M = 2048
model.N = 1
model.lambdas = 1.0
model.vector.1 = gaussian(0, 1)
localization.kind = indicator
localization.J = -1, 1
state.family = bump
state.support = 0.25, 0.75
experiment.r-list = 4, 8
experiment.energy-grid = -1, 2, 301
""")
    out = tmp_path / "out"
    assert main(["timedelay-sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text().splitlines()
    assert "fit_ok = False" in summary
    notes = [ln for ln in summary if ln.startswith("warning: ")]
    assert len(notes) == 1
    assert notes[0].startswith("warning: time-delay sweep has not settled: its last gap")
    assert notes[0] in capsys.readouterr().err.splitlines()


def test_grid_too_coarse_for_the_wave_operator_exits_2(tmp_path, capsys):
    # h = 1 puts the revival cap pi/h - 5 below zero: a named refusal,
    # not a traceback
    cfg = write_cfg(tmp_path, """
grid.L = 32
grid.M = 64
model.N = 1
model.lambdas = 1.0
model.vector.1 = gaussian(0, 3)
localization.kind = indicator
localization.J = -1, 1
state.family = bump
state.support = -4, 4
experiment.r-list = 4, 8
experiment.energy-grid = -6, 6, 101
experiment.exclusions = none
""")
    assert main(["timedelay-sweep", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "revival cap" in err and "grid.M" in err


@pytest.mark.parametrize("scale", ["nan", "inf", "0"])
def test_r_list_outside_the_positive_reals_exits_2(tmp_path, capsys, scale):
    # a NaN scale used to exit 0 with a NaN row
    cfg = write_cfg(tmp_path, f"""
grid.L = 16
grid.M = 2048
model.N = 0
localization.kind = indicator
localization.J = -1, 1
state.family = bump
state.support = 0.25, 0.75
experiment.r-list = 4, 8, {scale}
experiment.energy-grid = -1, 2, 301
""")
    assert main(["timedelay-sweep", "--config", cfg, "--check"]) == 2
    assert "experiment.r-list: scales must be positive and finite" in capsys.readouterr().err


def test_a_repeated_sweep_scale_is_refused_by_check_and_run_alike(tmp_path, capsys):
    # --check used to pass a list the sweep itself then refused without its key
    cfg = write_cfg(tmp_path, """
grid.L = 16
grid.M = 2048
model.N = 0
localization.kind = indicator
localization.J = -1, 1
state.family = bump
state.support = 0.25, 0.75
experiment.r-list = 4, 8, 8
experiment.energy-grid = -1, 2, 301
""")
    for extra in (["--check"], ["--out", str(tmp_path / "out")]):
        assert main(["timedelay-sweep", "--config", cfg, *extra]) == 2
        assert "experiment.r-list: r_list must not repeat a scale" in capsys.readouterr().err


_REFUSAL_BASES = {
    "propagation": """
grid.L = 16
grid.M = 512
localization.kind = smooth_bump
localization.delta = 1
localization.width = 0.5
state.family = gaussian
state.momentum = 1.5
experiment.r-list = 4
""",
    "timedelay-sweep": """
grid.L = 16
grid.M = 512
model.N = 0
localization.kind = indicator
localization.J = -1, 1
state.family = bump
state.support = 0.25, 0.75
experiment.r-list = 4, 8
experiment.energy-grid = -1, 2, 101
""",
    "point-spectrum": """
grid.L = 16
grid.M = 512
model.N = 1
model.lambdas = 1.0
model.vector.1 = gaussian(0, 1)
""",
}


@pytest.mark.parametrize("name, lines, cause", [
    # a non-finite profile parameter wrote NaN rows on the closed-form
    # route and died in a traceback on the direct one
    ("propagation", ["localization.delta = nan"], "delta must be positive and finite"),
    ("propagation", ["localization.delta = nan", "experiment.route = direct"],
     "delta must be positive and finite"),
    ("propagation", ["localization.delta = inf"], "delta must be positive and finite"),
    ("propagation", ["localization.width = nan"], "width must be nonnegative and finite"),
    ("propagation", ["localization.width = inf"], "width must be nonnegative and finite"),
    ("propagation", ["localization.kind = indicator", "localization.J = -inf, inf"],
     "delta must be positive and finite"),
    # analytic densities: I_r = 0 for width -1, NaN rows for the others,
    # and a traceback from the (since retired) quadrature for an unbounded band
    *[("propagation", ["state.family = gaussian-density", f"state.width = {v}"],
       "state.width: must be positive and finite") for v in ("-1", "nan", "inf")],
    *[("propagation", ["state.family = gaussian-density", f"state.momentum = {v}"],
       "state.momentum: must be finite") for v in ("nan", "-inf")],
    ("propagation", ["state.family = indicator-density", "state.band = 1, inf"],
     "momentum band must be finite"),
    ("propagation", ["state.family = momentum-indicator", "state.band = -inf, 1"],
     "momentum band must be finite"),
    # a NaN or infinite tolerance switched the tail refusals off
    *[("propagation", [f"experiment.tolerance = {v}", "experiment.route = direct"],
       "experiment.tolerance: must be positive and finite") for v in ("-1", "0", "nan", "inf")],
    *[("timedelay-sweep", [f"experiment.tolerance = {v}"],
       "experiment.tolerance: must be positive and finite") for v in ("nan", "inf")],
    *[("point-spectrum", [f"experiment.threshold = {v}"],
       "experiment.threshold: must be positive and finite") for v in ("-1", "0", "nan", "inf")],
    # a non-finite momentum passed --check, then refused as a rough state
    # after the output directory was made
    *[("propagation", ["state.family = gaussian", f"state.momentum = {v}"],
       "state.momentum: must be finite") for v in ("nan", "inf")],
])
def test_bad_parameters_are_refused_by_name(tmp_path, capsys, name, lines, cause):
    keys = {ln.split("=")[0].strip() for ln in lines}
    kept = [ln for ln in _REFUSAL_BASES[name].splitlines()
            if ln.split("=")[0].strip() not in keys]
    cfg = write_cfg(tmp_path, "\n".join(kept + lines) + "\n")
    assert main([name, "--config", cfg, "--check"]) == 2
    assert cause in capsys.readouterr().err
    assert main([name, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert cause in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_file_tabulated_vector_matches_builtin(tmp_path):
    x = np.linspace(-12, 12, 4001)
    v = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    np.savetxt(tmp_path / "vtab.txt", np.column_stack([x, v]))
    cfg = write_cfg(tmp_path, """
grid.L = 16
grid.M = 2048
model.N = 1
model.lambdas = 1.0
model.vector.1 = file(vtab.txt)
experiment.energy-grid = -2, 2, 201
""")
    out = tmp_path / "out"
    assert main(["smatrix", "--config", cfg, "--out", str(out)]) == 0
    _, rows, _ = read_rows(out / "smatrix.csv")
    origin = min(rows, key=lambda row: abs(row[0]))
    assert origin[1] + 1j * origin[2] == pytest.approx(S_ZERO, abs=1e-7)


@pytest.mark.parametrize("row, column, value", [(100, 1, np.nan), (199, 0, np.inf)],
                         ids=["nan_in_re", "inf_in_x"])
def test_a_non_finite_table_entry_is_refused_by_name(tmp_path, capsys, row, column, value):
    # a NaN in the re column ended the run with the spline's traceback, exit 1
    x = np.linspace(-12, 12, 200)
    table = np.column_stack([x, np.exp(-0.5 * x * x)])
    table[row, column] = value
    np.savetxt(tmp_path / "vtab.txt", table)
    cfg = write_cfg(tmp_path, """
grid.L = 16
grid.M = 2048
model.N = 1
model.lambdas = 1.0
model.vector.1 = file(vtab.txt)
experiment.energy-grid = -2, 2, 201
""")
    assert main(["smatrix", "--config", cfg, "--check"]) == 2
    assert f"model.vector.1: table {tmp_path / 'vtab.txt'} holds a non-finite value" \
        in capsys.readouterr().err
