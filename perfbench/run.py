"""Benchmark entry point for the friedrichs workbench.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Run from the repository root.  Each pass of a workload is one fresh Python
process (worker.py) with BLAS pinned to an explicit thread count, so every
pass pays what a command-line user pays: interpreter start, imports, the
package's lazy caches and the dense eigendecomposition.  Nothing is warmed.

--trace 0 first makes SETUP_PASSES passes that stop at the first computing
call, then repeats whole passes of the same seeded inputs, at least two and
as many as fit in --seconds.  It reports the median of set-up time over all
passes and of the other end-to-end metrics over the whole passes.  --trace 1
runs one traced pass, one untraced pass (for the tracing overhead) and one
untraced pass at one BLAS thread, and reports the per-layer metrics.
Every pass is checked against the acceptance bounds; a pass that misses
one, or raises, is a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
every pass and an environment record is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("sweep", "stationary", "spectrum")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# Set-up is under a second and jitters by about 10 %, so each run samples it
# in this many extra short passes as well as in every whole pass.
SETUP_PASSES = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics read straight off the span statistics, as <span>.<stat>
SPAN_METRICS = (
    "dynamics.build_propagator.calls", "dynamics.build_propagator.self_s",
    "dynamics.sojourn.calls", "dynamics.sojourn.self_s",
    "dynamics.wave_operator.calls", "dynamics.wave_operator.self_s",
    "dynamics.time_delay_sweep.self_s", "dynamics.time_delay_sweep.total_s",
    "dynamics.propagation_functional.calls", "dynamics.propagation_functional.self_s",
    "resolvent.point_spectrum.calls", "resolvent.point_spectrum.self_s",
    "resolvent.perturbation_determinant.calls", "resolvent.perturbation_determinant.self_s",
    "resolvent.boundary_matrix.calls", "resolvent.boundary_matrix.self_s",
    "resolvent.finite_rank_model.calls", "resolvent.finite_rank_model.self_s",
    "scattering.compute_curve.calls", "scattering.compute_curve.self_s",
    "scattering.s_matrix_chain.calls", "scattering.s_matrix_chain.self_s",
    "scattering.s_matrix_chain.total_s",
    "scattering.spectral_shift_density_determinant.self_s",
    "scattering.apply_scattering.self_s", "scattering.ew_time_delay.self_s",
    "grid.transform.calls", "grid.evaluate_many.calls", "grid.certify_support.self_s",
    "cli.run_experiment.self_s",
)


def blas_threads() -> int:
    """Explicit BLAS thread count: two, or fewer if fewer CPUs are usable."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def src_lines() -> int:
    """Physical lines of the package source: the simplicity tracker."""
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment(threads: int, blas: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": blas.get("numpy"),
        "scipy": blas.get("scipy"),
        "openblas": blas.get("openblas"),
        "blas_threads_pinned": threads,
        "blas_threads_reported": blas.get("threads"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "platform": platform.platform(),
    }


def run_pass(workload: str, seed: int, threads: int, deadline: float,
             spans: Path | None = None, setup_only: bool = False) -> dict:
    """Start one worker process; return its result or a failed-pass record.

    A pass with `spans` is traced; one with `setup_only` stops at the first
    computing call.
    """
    env = dict(os.environ)
    env.update({name: str(threads) for name in BLAS_ENV})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    workdir = OUT / f"work-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "pass timed out"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def _median(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def measure(workload: str, seed: int, seconds: float, threads: int, deadline: float):
    """SETUP_PASSES set-up passes, then whole passes, at least two, while the
    next fits in `seconds`.

    Returns the passes and the median of each end-to-end metric: set-up time
    over every pass, the others over the whole passes.
    """
    start = time.monotonic()
    setups = [run_pass(workload, seed, threads, deadline, setup_only=True)
              for _ in range(SETUP_PASSES)]
    passes = []
    while True:
        t = time.monotonic()
        passes.append(run_pass(workload, seed, threads, deadline))
        now = time.monotonic()
        took = now - t
        if len(passes) >= 2 and now - start + took > seconds:
            break
        if now + 1.5 * took > deadline:
            break
    timed = [p for p in passes if "wall_s" in p]
    setup = [p for p in setups + timed if "setup_s" in p]
    metrics = {name: {"value": _median(setup if name == "setup_s" else timed, name),
                      "unit": unit}
               for name, unit in END_TO_END} if timed else {}
    return setups + passes, metrics


def traced(workload: str, seed: int, threads: int, deadline: float):
    """One traced pass, one untraced pass, one untraced pass at one thread."""
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    t_pass = run_pass(workload, seed, threads, deadline, spans)
    u_pass = run_pass(workload, seed, threads, deadline)
    one = run_pass(workload, seed, 1, deadline)
    passes = [t_pass, u_pass, one]
    if not all("wall_s" in p for p in passes):
        return passes, {}
    layers = t_pass["layers"]
    metrics = {}
    for name in SPAN_METRICS:
        span, _, stat = name.rpartition(".")
        value = layers.get(span, {}).get(stat, 0)
        metrics[name] = {"value": value, "unit": "s" if stat.endswith("_s") else "count"}
    wave = layers.get("dynamics.wave_operator")
    metrics["dynamics.wave_operator.attempts_per_call"] = {
        "value": wave["attempts"] / wave["calls"] if wave else 0.0, "unit": "ratio"}
    metrics["dynamics.modes_needed_ratio"] = {
        "value": t_pass["modes_needed_ratio"], "unit": "ratio"}
    metrics["scattering.compute_curve.energies"] = {
        "value": t_pass["counts"].get("scattering.compute_curve.energies", 0),
        "unit": "count"}
    metrics["gate.accuracy_margin"] = {"value": t_pass["accuracy_margin"] or 0.0,
                                       "unit": "decades"}
    metrics["process.cpu_s"] = {"value": t_pass["cpu_s"], "unit": "s"}
    metrics["process.blas_threads"] = {"value": t_pass["env"]["threads"] or threads,
                                       "unit": "count"}
    metrics["process.unattributed_s"] = {"value": t_pass["unattributed_s"], "unit": "s"}
    metrics["process.trace_overhead_s"] = {
        "value": t_pass["wall_s"] - u_pass["wall_s"], "unit": "s"}
    metrics["process.wall_1thread_s"] = {"value": one["wall_s"], "unit": "s"}
    return passes, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    threads = blas_threads()
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(parents=True, exist_ok=True)
    if trace:
        passes, metrics = traced(workload, seed, threads, deadline)
    else:
        passes, metrics = measure(workload, seed, seconds, threads, deadline)
    failed = sum(1 for p in passes if p.get("error"))
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(passes),
              "failed": failed, "metrics": metrics}
    blas = next((p["env"] for p in passes if "env" in p), {})
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(threads, blas), "result": result,
              "passes": passes}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result, passes


def _print_human(workload: str, result: dict, passes: list) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:10s} {name:52s} {m['value']:.6g} {m['unit']}")
    margins = [p["accuracy_margin"] for p in passes if p.get("accuracy_margin") is not None]
    if margins:
        # seeded inputs move it by whole decades, so it is reported, not bounded
        print(f"{workload:10s} {'accuracy_margin':52s} {statistics.median(margins):.6g} decades")
    print(f"{workload:10s} failed {result['failed']} of {result['attempted']} passes")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark the friedrichs workbench.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "friedrichs" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'friedrichs'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name], passes = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_human(name, results[name], passes)
    if not any(r["metrics"] for r in results.values()):
        print("error: no pass produced a measurement", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
