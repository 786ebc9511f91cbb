"""Run one benchmark operation in this fresh process, as a user would.

    python3 perfbench/op.py --marks FILE [--trace FILE] cli <linnik-lab args>
    python3 perfbench/op.py --marks FILE [--trace FILE] <call> <json spec>

`cli` runs the linnik-lab command line exactly as its console script does;
the other kinds are single library calls whose result is printed as JSON.
The moment linnik_lab.cli is imported and ready is written to the marks file
(time.monotonic, which every process on the machine shares), so the parent
can split the process's life into set-up and work, together with the peak
resident memory of this process and its pool workers.  With --trace, spans and
counters are written to the trace file (see tracer.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _easy_context(spec: dict):
    from linnik_lab import multfunc, pipeline
    params = pipeline.ParamSet.from_q(spec["q"], spec["epsilon"], easy_mode=True,
                                      R=spec["R"], Q1=spec["Q1"], z=spec["z"])
    return pipeline.build_context(multfunc.liouville_fn(), spec["q"], params)


def _general_context(spec: dict):
    from linnik_lab import multfunc, pipeline
    params = pipeline.ParamSet.from_q(
        spec["q"], spec["epsilon"], easy_mode=False, R=spec["R"], U=spec["U"],
        M=spec["M"], Q1=spec["Q1"], z=spec["z"], K=spec["K"],
        ladder_overrides=spec["ladder"])
    ks = tuple(sorted({k for triple in spec["kset"] for k in triple}))
    return pipeline.build_context(multfunc.liouville_fn(), spec["q"], params, ks)


def call_s_easy(spec: dict) -> dict:
    """Direct-enumeration S on the single-interval configuration."""
    from linnik_lab import pipeline
    value, extras = pipeline.s_function_easy(_easy_context(spec), spec["a"], None, None,
                                             tuple(spec["deltas"]))
    return {"value": value, "extras": extras}


def call_s_easy_chars(spec: dict) -> dict:
    """The same S by the character-expansion route, for the dual-route check."""
    from linnik_lab import pipeline
    return {"value": pipeline.s_function_easy_chars(_easy_context(spec), spec["a"], None, None,
                                                    tuple(spec["deltas"]))}


def call_s_general(spec: dict) -> dict:
    """Direct-enumeration S on a ladder configuration."""
    from linnik_lab import pipeline
    kset = [tuple(k) for k in spec["kset"]]
    value, extras = pipeline.s_function_general(_general_context(spec), spec["a"], None, None,
                                                None, tuple(spec["deltas"]), kset)
    return {"value": value, "extras": extras}


def call_s_general_chars(spec: dict) -> dict:
    """The same S by the character-expansion route, for the dual-route check."""
    from linnik_lab import pipeline
    kset = [tuple(k) for k in spec["kset"]]
    return {"value": pipeline.s_function_general_chars(
        _general_context(spec), spec["a"], None, None, None, tuple(spec["deltas"]), kset)}


def call_sieve_weights(spec: dict) -> dict:
    """The beta-sieve weight pair, restricted to d <= limit, for the sandwich check."""
    from linnik_lab import sieve
    plus, minus = sieve.build_beta_sieve(spec["z"], spec["D"])
    return {"support": [len(plus.weights), len(minus.weights)],
            "plus": {d: w for d, w in plus.weights.items() if d <= spec["limit"]},
            "minus": {d: w for d, w in minus.weights.items() if d <= spec["limit"]}}


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of the children it reaped.

    VmHWM belongs to this process's own address space.  ru_maxrss of the
    process itself is not used: on Linux it starts from the launching
    process's peak, which would count the benchmark's own parent process.
    """
    own_kb = 0
    try:
        with open("/proc/self/status") as fh:
            own_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


CALLS = {"s_easy": call_s_easy, "s_easy_chars": call_s_easy_chars,
         "s_general": call_s_general, "s_general_chars": call_s_general_chars,
         "sieve_weights": call_sieve_weights}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--marks", required=True)
    parser.add_argument("--trace")
    parser.add_argument("kind", choices=("cli",) + tuple(CALLS))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    kind, args = opts.kind, opts.args

    tracer = None
    if opts.trace:
        import mpmath  # noqa: F401  third-party set-up stays outside the layers' spans
        import numpy  # noqa: F401
        from tracer import Tracer
        tracer = Tracer(opts.trace)
        tracer.import_layers()
        tracer.install()
    import linnik_lab.cli as cli
    marks = {"ready": time.monotonic()}
    try:
        if kind == "cli":
            code = cli.run(args)
        else:
            print(json.dumps(CALLS[kind](json.loads(args[0])), sort_keys=True))
            code = 0
        sys.stdout.flush()
    finally:
        marks["done"] = time.monotonic()
        marks["rss_mb"] = peak_rss_mb()
        with open(opts.marks, "w") as fh:
            json.dump(marks, fh)
        if tracer is not None:
            tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
