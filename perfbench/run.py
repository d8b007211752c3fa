"""Benchmark for olsub: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload session|families|normalize|explain \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A run does a fixed amount of work,
set by the workload, `--seed` and `--seconds` alone: a number of whole
rounds in proportion to `--seconds` (`ROUNDS_PER_SECOND`), and at least
100 operations; how fast the rounds run does not change how many run. With
`--trace 0` the metrics are the end-to-end ones, measured untraced. With
`--trace 1` a fixed set of rounds runs untraced, then once with spans
around calls into each module, then once more untraced, and the metrics
are the per-layer ones; the spans are written to `perfbench/traces/`. See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("session", "families", "normalize", "explain")
# Rounds per second of `--seconds`: about 10 s of operation time in a
# 10-second run at the time of writing.
ROUNDS_PER_SECOND = {"session": 0.4, "families": 0.3, "normalize": 3.6, "explain": 0.3}
MIN_OPS = 100  # so that at least 10 operations lie beyond the 90th percentile
# Rounds in a traced run: each takes a few seconds at the time of writing.
TRACE_ROUNDS = {"session": 1, "families": 1, "normalize": 4, "explain": 1}

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "olsub" / "__init__.py").is_file():
        print(f"error: no olsub package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as workdir:
        run_round = round_runner(workloads, args.workload, args.seed, Path(workdir))
        if args.trace:
            result = traced_run(args, workloads, run_round)
        else:
            result = timed_run(args, workloads, run_round)
    print(json.dumps(result))
    return 0


def round_runner(workloads, name, seed, workdir):
    """`run(r, rec, composed)` runs round r of the workload into `rec`."""
    interps = workloads.interpretations(seed) if name == "normalize" else None

    def run(r, rec, composed=False):
        rng = random.Random(f"{name}:{seed}:{r}")
        if name == "session":
            workloads.session_round(rng, rec)
        elif name == "families":
            workloads.families_round(rng, rec)
        elif name == "normalize":
            workloads.normalize_round(rng, rec, interps, composed=composed)
        else:
            workloads.explain_round(rng, rec, workdir)

    return run


def timed_run(args, workloads, run_round) -> dict:
    rec = workloads.Recorder()
    rounds = max(1, round(ROUNDS_PER_SECOND[args.workload] * args.seconds))
    r = 0
    while r < rounds or rec.attempted < MIN_OPS:
        run_round(r, rec)
        r += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = rec.op_ms
    metrics = {
        "setup_s": (statistics.median(rec.setups_s), "s"),
        "latency_p50_ms": (statistics.median(ops), "ms"),
        "latency_p90_ms": (statistics.quantiles(ops, n=10)[8], "ms"),
        "throughput_ops_s": (len(ops) / rec.timed_s, "ops/s"),
        "provable_p50_ms": (statistics.median(rec.positive_ms), "ms"),
        "refuted_p50_ms": (statistics.median(rec.negative_ms), "ms"),
        "success_rate": ((rec.attempted - rec.failed) / rec.attempted, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"{args.workload}: {r} rounds, {len(ops)} ops "
          f"({len(rec.positive_ms)} provable), {len(rec.setups_s)} set-ups, "
          f"{rec.raw_ns / 1e9:.2f} s timed, raw p50 "
          f"{statistics.median(rec.raw_op_ms):.3f} ms", file=sys.stderr)
    return report(rec.attempted, rec.failed, metrics)


def traced_run(args, workloads, run_round) -> dict:
    from spans import Tracer

    rounds = TRACE_ROUNDS[args.workload]
    plain = workloads.Recorder()

    def untraced_pass() -> float:
        before = plain.timed_s
        for r in range(rounds):
            run_round(r, plain)
        return plain.timed_s - before

    before = untraced_pass()

    tracer = Tracer()
    traced = workloads.Recorder(tracer=tracer)
    tracer.install()
    tracer.start_gc_clock()
    try:
        for r in range(rounds):
            run_round(r, traced, composed=True)
            tracer.end_round()
    finally:
        tracer.stop_gc_clock()
        tracer.uninstall()
    # Untraced passes on either side of the traced one: normalize_ol keeps
    # every universe alive, so each pass runs on a larger heap than the last.
    untraced_s = (before + untraced_pass()) / 2
    traced_s = traced.timed_s
    metrics = tracer.layer_metrics()
    sizes = traced.extra.get("sizes", [0, 0])
    metrics["normalize.size_ratio"] = (sizes[1] / sizes[0] if sizes[0] else 0.0, "ratio")
    clauses = traced.extra.get("sn_tn_clauses", {})
    for n in workloads.BASELINE_N:
        metrics[f"entail.sn_tn_clauses_{n}"] = (clauses.get(n, 0), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")

    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{args.workload}-{args.seed}.json")
    print(f"{args.workload}: 2 untraced passes and 1 traced of {rounds} rounds, "
          f"{len(tracer.spans)} spans", file=sys.stderr)
    return report(plain.attempted + traced.attempted, plain.failed + traced.failed, metrics)


def report(attempted, failed, metrics) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
