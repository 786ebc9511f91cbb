"""Steadiness check: two independent sets of benchmark runs, compared against
the bounds in BENCHMARK.json.

    python3 perfbench/steady.py

Each of the two sets runs every workload of BENCHMARK.json ten times, each
time with another seed (the sets use disjoint seeds), for run_seconds and
with tracing off.  For every workload and end-to-end metric it prints the
median of each set and the spread of each set (the distance between the
first and third quartile as a share of the median).  A metric passes when
both spreads are within its bound and the two medians differ by no more than
the bound, in either direction.  The failed share of operations must be
identical in every run.

Before the runs it prints the sha256 of each operation's standard output for
one round at seed 0.  The hashes are for reference only and gate nothing: a
correct numerical change may alter the last printed bits.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import Launcher  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETS = 2
RUNS = 10


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def print_hashes(names: list[str]) -> None:
    tmp = ROOT / ".perfbench_tmp" / "hashes"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        launcher = Launcher(tmp)
        for name in names:
            workload = WORKLOADS[name]()
            workload.prepare(0, launcher.library_call)
            for op in workload.ops(0):
                r = launcher.run(op.kind, op.args)
                digest = hashlib.sha256(r.stdout).hexdigest()
                print(f"  {name:10s} {op.name:40s} exit {r.code}  sha256 {digest}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    print("operation stdout sha256 (reference only):")
    print_hashes(names)

    ok = True
    for name in names:
        sets = []
        for s in range(SETS):
            seeds = range(1000 * (s + 1), 1000 * (s + 1) + RUNS)
            sets.append([run_once(name, seed, spec["run_seconds"]) for seed in seeds])
        shares = {tuple(sorted({r["failed"] / r["attempted"] for r in runs})) for runs in sets}
        same_share = len(shares) == 1 and len(next(iter(shares))) == 1
        ok &= same_share and all(r["correct"] for runs in sets for r in runs)
        print(f"== {name}: failed share {sorted(shares)} {'same' if same_share else 'DIFFERS'}; "
              f"correct in every run: {all(r['correct'] for runs in sets for r in runs)}")
        for metric, bound in bounds.items():
            values = [[r["metrics"][metric]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = medians[1] / medians[0] - 1
            passed = abs(drift) <= bound and max(spreads) <= bound
            ok &= passed
            print(f"  {metric:12s} bound {bound:.2f}  medians "
                  + " ".join(f"{m:10.4f}" for m in medians)
                  + "  spreads " + " ".join(f"{x:6.3f}" for x in spreads)
                  + f"  drift {drift:+.3f}  {'ok' if passed else 'OUT OF BOUND'}"
                  + ("" if max(spreads) <= bound / 3 else "  (spread > bound/3)"))
            for v in values:
                print("    runs " + " ".join(f"{x:.4g}" for x in v))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
