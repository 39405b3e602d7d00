"""Self-tests of the benchmark harness (no heavy computation).

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _ticking_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_synthetic_nested_call():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6]
    tr = tracing.Tracer(clock=_ticking_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tr.span("outer"):
        with tr.span("a"):
            with tr.span("g"):
                pass
        with tr.span("b"):
            pass
    assert [s[tracing.PARENT] for s in tr.spans] == [-1, 0, 1, 0]
    assert tracing.self_times(tr.spans) == [6, 2, 1, 1]
    stats = tracing.layer_stats(tr.spans)
    assert stats["outer"]["self_s"] == 6 and stats["outer"]["total_s"] == 10
    assert sum(st["self_s"] for st in stats.values()) == 10


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, ""], ["c", 1.0, 4.0, 0, ""],
             ["c", 3.0, 6.0, 0, ""], ["c", 9.0, 12.0, 0, ""]]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _fake_package():
    pkg = types.ModuleType("fake")
    mod = types.ModuleType("fake.mod")
    exec("def retry(n):\n    return n if n == 0 else retry(n - 1)\n", mod.__dict__)
    user = types.ModuleType("fake.user")
    user.retry = mod.retry
    pkg.retry = mod.retry
    return {"": pkg, "mod": mod, "user": user}


def test_install_rebinds_everywhere_and_counts_retries():
    modules = _fake_package()
    tr = tracing.Tracer()
    rebound = tracing.install(tr, modules, targets=("mod.retry",))
    assert sorted(m for m, _, _ in rebound) == ["", "mod", "user"]
    assert modules["user"].retry(2) == 0
    stats = tracing.layer_stats(tr.spans)["mod.retry"]
    assert (stats["calls"], stats["attempts"]) == (1, 3)


def test_install_refuses_a_missed_binding():
    modules = _fake_package()
    modules["user"].table = {"retry": modules["mod"].retry}
    with pytest.raises(RuntimeError, match="user.table"):
        tracing.install(tracing.Tracer(), modules, targets=("mod.retry",))


def test_install_covers_the_real_package():
    sys.path.insert(0, str(SRC))
    import friedrichs
    import friedrichs.cli  # noqa: F401

    modules = {name.partition(".")[2]: m for name, m in sys.modules.items()
               if name == "friedrichs" or name.startswith("friedrichs.")}
    saved = {name: dict(vars(m)) for name, m in modules.items()}
    try:
        tracing.install(tracing.Tracer(), modules)
        # bindings the package uses internally, including the lazy import
        # inside point_spectrum, which reads the defining module
        for mod, attr in (("scattering", "perturbation_determinant"),
                          ("dynamics", "build_propagator"), ("cli", "transform"),
                          ("resolvent", "evaluate_many"), ("", "compute_curve")):
            assert hasattr(getattr(modules[mod], attr), "__wrapped__")
    finally:
        for name, m in modules.items():
            vars(m).update(saved[name])


def _summary(**over):
    base = {"fit_ok": "True", "free_sojourn_symmetry_residual": "1.4e-07",
            "rel_gap": "2e-08", "unitarity_residual": "2e-14",
            "birman_krein_residual": "1e-13"}
    base.update(over)
    return base


ROWS = [{"tau_in": "-1.43", "tau_sym": "-1.43000007"}]


def test_gate_passes_a_clean_sweep():
    checks = workloads.sweep_checks(_summary(), ROWS)
    assert all(c.ok for c in checks)
    assert workloads.accuracy_margin(checks) == pytest.approx(math.log10(1e-6 / 1.4e-7))


def test_gate_fails_a_residual_injected_above_its_bound():
    checks = workloads.sweep_checks(_summary(birman_krein_residual="2e-6"), ROWS)
    assert [c.name for c in checks if not c.ok] == ["birman_krein"]
    assert workloads.accuracy_margin(checks) < 0
    assert not workloads.Check("nan", math.nan, 1.0).ok


def test_gate_fails_a_structural_check():
    with pytest.raises(workloads.GateFailure, match="fit_ok"):
        workloads.sweep_checks(_summary(fit_ok="False"), ROWS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic(name):
    gen = workloads.WORKLOADS[name].generate
    first = json.dumps(gen(7), sort_keys=True).encode()
    assert json.dumps(gen(7), sort_keys=True).encode() == first
    assert json.dumps(gen(8), sort_keys=True).encode() != first


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reported_metrics_match_benchmark_json(monkeypatch):
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    fake = {"setup_s": 0.5, "wall_s": 1.0, "peak_rss_mb": 100.0, "cpu_s": 1.0,
            "accuracy_margin": 2.0, "layers": {}, "modes_needed_ratio": 0.0,
            "counts": {}, "unattributed_s": 0.0, "env": {"threads": 2}}
    monkeypatch.setattr(run, "run_pass", lambda *a, **kw: dict(fake))
    for (_, metrics), declared in ((run.measure("sweep", 1, 0.0, 2, 1e18), "end_to_end"),
                                   (run.traced("sweep", 1, 2, 1e18), "per_layer")):
        assert {k: m["unit"] for k, m in metrics.items()} == \
            {m["name"]: m["unit"] for m in bench[declared]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_only_pass_stops_at_the_first_computing_call(name):
    import run

    out = run.run_pass(name, 1, 1, time.monotonic() + 120, setup_only=True)
    assert out["error"] is None
    assert 0 < out["setup_s"] < 60
    assert "wall_s" not in out and "checks" not in out
