"""Check the byte-identity contract of the five demo experiments.

Runs every demos/configs/*.cfg through ``python -m friedrichs.cli``, and the
walkthroughs demos/headline_sweep.py and demos/embedded_eigenvalue.py (whose
standard output is kept as ``<script>.stdout``), on the tree of a git
revision and on the working tree, at each BLAS thread count given, and
compares every output file byte for byte:

    python demos/compare_outputs.py HEAD~ --threads 1 2

Prints ``same`` or ``DIFF`` per file and exits 1 on any difference.  Under
a differing CSV file whose values are all numbers it also prints the
largest absolute difference in each column, and under a differing
``summary.txt`` or CSV footer each ``key = value`` line that changed, with
its old and new value.
"""

import argparse
import csv
import filecmp
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the embedded eigenvalue walkthrough is the one demo that reaches the
# point-spectrum refine and exclusion probes; no config finds point spectrum
SCRIPTS = ("headline_sweep.py", "embedded_eigenvalue.py")


def run_demos(tree: Path, out: Path, threads: int) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update({f"{lib}_NUM_THREADS": str(threads) for lib in ("OPENBLAS", "OMP", "MKL")})
    for cfg in sorted((ROOT / "demos" / "configs").glob("*.cfg")):
        subprocess.run([sys.executable, "-m", "friedrichs.cli", cfg.stem, "--config",
                        str(cfg), "--out", str(out / cfg.stem)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
    for script in SCRIPTS:
        shown = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                               check=True, capture_output=True).stdout
        (out / script).with_suffix(".stdout").write_bytes(shown)


def column_diffs(a: Path, b: Path) -> str | None:
    """Largest absolute difference per column of two numeric CSV files.

    None when the files are not CSV, differ in shape or hold a non-number.
    """
    tables = []
    for path in (a, b):
        if path.suffix != ".csv" or not path.is_file():
            return None
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(ln for ln in fh if not ln.startswith("#"))))
    (head, *rows), (head_b, *rows_b) = tables
    if head != head_b or [len(r) for r in rows] != [len(r) for r in rows_b]:
        return None
    try:
        worst = [max((abs(float(x[j]) - float(y[j])) for x, y in zip(rows, rows_b)
                      if x[j] != y[j]), default=0.0) for j in range(len(head))]
    except ValueError:
        return None
    return "  ".join(f"{name} {diff:.3g}" for name, diff in zip(head, worst))


KEY_VALUE = re.compile(r"#?\s*(\S+) = (.*)")


def key_changes(a: Path, b: Path) -> list:
    """"key: old -> new" for each ``key = value`` line (or ``# key = value``
    line of a CSV footer) that differs between two files."""
    old, new = ({} if not path.is_file() else
                dict(m.groups() for m in map(KEY_VALUE.fullmatch,
                                             path.read_text().splitlines()) if m)
                for path in (a, b))
    return [f"{key}: {old.get(key, '(absent)')} -> {new.get(key, '(absent)')}"
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~")
    parser.add_argument("--threads", type=int, nargs="+", default=[1],
                        help="BLAS thread counts to run at (default: 1)")
    args = parser.parse_args()
    archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base, filter="data")
        for threads in args.threads:
            outs = [Path(tmp) / f"{side}-{threads}" for side in ("base", "work")]
            for tree, out in zip((base, ROOT), outs):
                run_demos(tree, out, threads)
            names = sorted({p.relative_to(o) for o in outs for p in o.rglob("*")
                            if p.is_file()})
            for rel in names:
                a, b = (o / rel for o in outs)
                same = a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False)
                differ |= not same
                print(f"{'same' if same else 'DIFF'}  threads={threads}  {rel}")
                if same:
                    continue
                diffs = column_diffs(a, b)
                if diffs:
                    print(f"      max |diff|: {diffs}")
                for change in key_changes(a, b):
                    print(f"      {change}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
