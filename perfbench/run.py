"""linnik-lab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload thresholds|spectral|ladder|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is used from its ./src.  Each
operation is one fresh Python process (perfbench/op.py) started one at a time
from this process, as a user runs linnik-lab.  Rounds of the workload's
operations repeat, whole, until --seconds have passed.  Every output is
checked against independent reference computations (workloads.py,
oracles.py).

--trace 0 reports the end-to-end metrics.  wall_s and setup_s are scaled to
a reference host speed, measured by a calibration process launched before
every operation.  --trace 1 alternates untraced and traced rounds and reports
the per-layer metrics from the traced rounds plus trace.overhead_s, the traced
minus the untraced round wall time.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  The lines before it print
the same metrics by name with units, the per-operation latencies
(rfunc_table_s, densemodel_s, ...) and the unscaled figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from tracer import LAYERS, POOL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYER_COUNTERS = {
    "group": ("character_matrix_bytes", "unit_groups_built", "character_evaluations"),
    "arith": ("integers_sieved", "scalar_factorizations"),
    "pipeline": ("s_tuples_visited", "witnesses_verified"),
    "charsums": ("class_collapse_terms", "transform_calls"),
    "densemodel": ("spectrum_size",),
    "setcomb": ("convolutions", "product_set_pairs"),
    "sieve": ("support_size",),
}


# The host this was tuned on drifts between speeds up to 1.45 times apart over
# minutes, on both vCPUs alike, so raw seconds from two sets of runs taken
# minutes apart disagree by more than any bound allowed.  The wall time of a
# fresh interpreter importing numpy, launched before every operation, follows
# that drift (see README.md).  wall_s and setup_s are scaled by
# REFERENCE_CALIBRATION_S over its median in the run: seconds at the speed at
# which that import takes REFERENCE_CALIBRATION_S, its usual time on that host
# in a fast period.
CALIBRATION = [sys.executable, "-c", "import numpy"]
REFERENCE_CALIBRATION_S = 0.22


@dataclass
class OpRun:
    code: int
    setup_s: float
    latency_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    trace: list[dict]


class Launcher:
    """Starts operation processes one at a time inside a scratch directory of
    the checkout, and times each from launch to readiness to exit."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=os.pathsep.join(path))

    def run(self, kind: str, args: list[str], traced: bool = False) -> OpRun:
        out, err, marks = self.tmp / "stdout", self.tmp / "stderr", self.tmp / "marks.json"
        trace = self.tmp / "trace.json"
        for f in [marks, *self.tmp.glob("trace.json*")]:
            f.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "op.py"), "--marks", str(marks)]
        if traced:
            cmd += ["--trace", str(trace)]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd + [kind] + args, stdout=fo, stderr=fe,
                                    env=self.env, cwd=ROOT)
            _, status = os.waitpid(proc.pid, 0)
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # a process killed before its marks were written counts as set-up only
        m = json.loads(marks.read_text()) if marks.exists() else {"ready": t1, "rss_mb": 0.0}
        traces = [json.loads(f.read_text()) for f in sorted(self.tmp.glob("trace.json*"))]
        return OpRun(proc.returncode, m["ready"] - t0, t1 - m["ready"], m["rss_mb"],
                     out.read_bytes(), err.read_bytes(), traces)

    def calibrate(self) -> float:
        """Wall time of the calibration process, from launch to reaping."""
        t0 = time.monotonic()
        subprocess.run(CALIBRATION, env=self.env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.monotonic() - t0

    def library_call(self, kind: str, spec: dict):
        """A library call whose result the checks need (not timed)."""
        run = self.run(kind, [json.dumps(spec, sort_keys=True)])
        if run.code != 0:
            raise RuntimeError(f"{kind} failed: {run.stderr.decode()[-500:]}")
        return json.loads(run.stdout)


def run_round(launcher: Launcher, ops, traced: bool, log) -> dict:
    runs, calibrations = [], []
    for op in ops:
        calibrations.append(launcher.calibrate())
        r = launcher.run(op.kind, op.args, traced)
        ok = True
        if r.code == 0:
            try:
                op.check(r.stdout)
            except Exception:
                ok = False
                log(f"CHECK FAILED {op.name}:\n{traceback.format_exc()}")
        runs.append((op, r, ok))
    return {"runs": runs, "traced": traced, "calibrations": calibrations,
            "wall": sum(r.latency_s for _, r, _ in runs)}


def end_to_end(rounds) -> tuple[dict, dict]:
    """(metrics in the JSON result, per-operation latencies by group name).

    Each operation's latency is its mean over the run's rounds; a group and
    wall_s add those means up, so wall_s is the mean work time of a round.
    Besides the drift over minutes that the calibration takes out, the host
    switches between a fast state and one about 1.5 times slower several
    times a second to every few seconds, so a single latency lands in
    either; the mean over rounds spread less from run to run than the
    per-operation minimum or median (see README.md).

    wall_s and setup_s are scaled to the reference speed; the per-operation
    latencies and the raw figures are printed unscaled.
    """
    ops = [op for op, _, _ in rounds[0]["runs"]]
    op_mean = [fmean(rd["runs"][i][1].latency_s for rd in rounds) for i in range(len(ops))]
    groups = dict.fromkeys(op.group for op in ops if op.group)
    for op, mean in zip(ops, op_mean):
        if op.group:
            groups[op.group] = (groups[op.group] or 0.0) + mean
    all_runs = [r for rd in rounds for _, r, _ in rd["runs"]]
    cal = median(c for rd in rounds for c in rd["calibrations"])
    scale = REFERENCE_CALIBRATION_S / cal
    raw = {"raw wall_s": sum(op_mean), "raw setup_s": median(r.setup_s for r in all_runs),
           "calibration_s": cal}
    metrics = {
        "wall_s": (raw["raw wall_s"] * scale, "s"),
        "setup_s": (raw["raw setup_s"] * scale, "s"),
        "peak_rss_mb": (max(r.rss_mb for r in all_runs), "MB"),
    }
    return metrics, {**groups, **raw}


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics: medians over traced rounds of the per-round totals."""
    def total(rd, section, name):
        return sum(t[section].get(name, 0) for _, r, _ in rd["runs"] for t in r.trace)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (median([total(rd, "self_s", layer) for rd in traced]), "s")
        metrics[f"{layer}.calls"] = (median([total(rd, "calls", layer) for rd in traced]), "count")
        for c in LAYER_COUNTERS.get(layer, ()):
            unit = "bytes" if c.endswith("bytes") else "count"
            metrics[f"{layer}.{c}"] = (median([total(rd, "counters", f"{layer}.{c}")
                                               for rd in traced]), unit)
    metrics["cli.report_bytes"] = (median([sum(len(r.stdout) for op, r, _ in rd["runs"]
                                                if op.kind == "cli") for rd in traced]), "bytes")
    metrics["cli.pool_wait_s"] = (median([total(rd, "self_s", POOL) for rd in traced]), "s")
    metrics["trace.overhead_s"] = (median([rd["wall"] for rd in traced])
                                   - median([rd["wall"] for rd in untraced]), "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path, log) -> dict:
    workload = WORKLOADS[name]()
    launcher = Launcher(tmp)
    workload.prepare(seed, launcher.library_call)
    ops = workload.ops(seed)
    rounds = []
    start = time.monotonic()
    while (time.monotonic() - start < seconds or not rounds
           or (trace and len(rounds) < 2)):
        rounds.append(run_round(launcher, ops, trace and len(rounds) % 2 == 1, log))
    all_runs = [(op, r, ok) for rd in rounds for op, r, ok in rd["runs"]]
    for op, r, _ in rounds[0]["runs"]:
        if r.code != 0:
            log(f"FAILED {op.name}: exit {r.code}: "
                f"{r.stderr.decode(errors='replace').strip()[-300:]}")
    untraced = [rd for rd in rounds if not rd["traced"]]
    if trace:
        metrics = per_layer([rd for rd in rounds if rd["traced"]], untraced)
        per_group = {}
    else:
        metrics, per_group = end_to_end(untraced)
    return {
        "correct": all(ok for _, r, ok in all_runs if r.code == 0),
        "attempted": len(all_runs),
        "failed": sum(1 for _, r, _ in all_runs if r.code != 0),
        "rounds": len(rounds),
        "metrics": metrics,
        "per_operation": per_group,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linnik_lab" / "cli.py").is_file():
        print(f"error: no linnik_lab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    def log(msg):
        print(msg, file=sys.stderr)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), tmp, log)
            results[name] = res
            print(f"== {name}: {res['rounds']} rounds, attempted {res['attempted']}, "
                  f"failed {res['failed']}, correct {res['correct']}")
            for metric, (value, unit) in res["metrics"].items():
                print(f"  {metric:32s} {value:14.6f} {unit}")
            for group, value in res["per_operation"].items():
                print(f"  {'(' + group + ')':32s} {value:14.6f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    def summary(res):
        return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}}

    if args.workload == "all":
        print(json.dumps({name: summary(res) for name, res in results.items()}))
    else:
        print(json.dumps(summary(results[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
