"""One benchmark pass of one workload, in a fresh process.

run.py starts this script with BLAS threads pinned in the environment and
the package source on PYTHONPATH; it prints one JSON object as the last line
of standard output.  Times are taken on CLOCK_MONOTONIC, which every process
on the host shares, so ``--t0`` (the parent's clock just before it started
this process) makes set-up time include interpreter start and imports.
``--spans FILE`` traces the pass and writes its spans to FILE.
``--setup-only`` stops at the first computing call and reports set-up time.

    python3 perfbench/worker.py --workload stationary --seed 1 \
        --t0 <monotonic seconds> --workdir perfbench/out/work
"""

from __future__ import annotations

import argparse
import glob
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# share of ||W- phi||^2 that modes_needed_ratio lets the dropped modes hold
DISCARD = 1e-20


class SetupDone(Exception):
    """Raised at the first computing call of a set-up-only pass."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_record() -> dict:
    """Library versions and the thread count OpenBLAS reports at run time."""
    import ctypes

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"numpy": np.__version__, "scipy": scipy.__version__,
              "openblas": blas.get("openblas configuration") or blas.get("version"),
              "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                record["threads"] = int(fn())
                return record
    return record


def modes_needed_ratio(prop, w_phi) -> float:
    """Eigenmodes holding all but DISCARD of ||W- phi||^2, divided by M."""
    c2 = np.abs(prop.coefficients(w_phi)) ** 2
    ascending = np.cumsum(np.sort(c2))
    droppable = int(np.searchsorted(ascending, DISCARD * ascending[-1], side="right"))
    return (c2.size - droppable) / c2.size


def package_modules(fr) -> dict:
    """Short name -> module for the package and every loaded submodule."""
    return {name.partition(".")[2]: mod for name, mod in sys.modules.items()
            if name == fr.__name__ or name.startswith(fr.__name__ + ".")}


def run_pass(args) -> dict:
    sys.path.insert(0, str(SRC))
    import friedrichs as fr
    import friedrichs.cli  # noqa: F401  (the sweep runs through the CLI)

    if not Path(fr.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"friedrichs imported from {fr.__file__}, not from {SRC}")
    from workloads import WORKLOADS, GateFailure, accuracy_margin

    wl = WORKLOADS[args.workload]
    modules = package_modules(fr)
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer(f"{wl.name}/seed{args.seed}",
                                counters=tracing.COUNTERS)
        tracing.install(tracer, modules)

    marks = {}
    if wl.first_call is not None:
        module = modules[wl.first_call[0]]
        inner = getattr(module, wl.first_call[1])

        def first_call(*a, **kw):
            marks.setdefault("first", now())
            if args.setup_only:
                raise SetupDone
            return inner(*a, **kw)

        setattr(module, wl.first_call[1], first_call)

    inputs = wl.generate(args.seed)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    checks, error = [], None
    cpu0 = cpu_seconds()
    with tracer.span("workload") if tracer else nullcontext():
        try:
            built = wl.build(fr, inputs, workdir)
            if wl.first_call is None:
                marks["first"] = now()
                if args.setup_only:
                    raise SetupDone
            checks = wl.execute(fr, built)
        except SetupDone:
            pass
        except (GateFailure, fr.ToleranceError, fr.PointSpectrumProximity,
                fr.ValidationError, fr.StateNotAdmissible) as exc:
            error = f"{type(exc).__name__}: {exc}"
    t_end = now()
    first = marks.get("first", t_end)
    if args.setup_only:
        return {"workload": wl.name, "seed": args.seed, "setup_s": first - args.t0,
                "error": error, "env": blas_record()}

    failed = [c.name for c in checks if not c.ok]
    out = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "setup_s": first - args.t0,
        "wall_s": t_end - first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": cpu_seconds() - cpu0,
        "checks": [[c.name, c.residual, c.bound] for c in checks],
        "accuracy_margin": accuracy_margin(checks) if checks else None,
        "error": error or (f"checks above bound: {failed}" if failed else None),
        "env": blas_record(),
    }
    if tracer is not None:
        out.update(traced_summary(tracer, args))
    return out


def traced_summary(tracer, args) -> dict:
    import tracing

    root = next(i for i, s in enumerate(tracer.spans) if s[tracing.NAME] == "workload")
    selfs = tracing.self_times(tracer.spans)
    span = tracer.spans[root]
    prop = tracer.last_result.get("dynamics.build_propagator")
    w_phi = tracer.last_result.get("dynamics.wave_operator")
    ratio = (modes_needed_ratio(prop, w_phi)
             if prop is not None and w_phi is not None and not prop.is_diagonal else 0.0)
    Path(args.spans).write_text(json.dumps(tracer.spans))
    return {
        "layers": tracing.layer_stats(tracer.spans),
        "root_s": span[tracing.END] - span[tracing.START],
        "unattributed_s": selfs[root],
        "modes_needed_ratio": ratio,
        "counts": dict(tracer.counts),
        "span_count": len(tracer.spans),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="CLOCK_MONOTONIC seconds when the parent started this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None,
                   help="trace the pass and write its spans to this file")
    p.add_argument("--setup-only", action="store_true",
                   help="stop at the first computing call; report set-up time only")
    args = p.parse_args(argv)
    try:
        out = run_pass(args)
    except Exception:  # report, so the parent counts a failed pass
        traceback.print_exc()
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
