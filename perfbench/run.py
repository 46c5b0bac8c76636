"""Benchmark for the SigRec reproduction: one workload, one seed, one run.

    python3 perfbench/run.py --workload cold-unique --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from
``src/``; nothing is installed.  The run

1. sets up: imports the program, then builds the seeded inputs (and,
   for ``chain-replay``, fills the pre-filled cache directory)
   ``SETUP_REPEATS`` times, reporting the import time plus the median
   repetition as ``setup_s``.  The benchmark's own once-per-run work
   (warm-up, and ``chain-replay``'s cold reference) follows untimed;
2. measures cold rounds over the inputs for ``--seconds`` seconds
   (``--trace 1`` alternates untraced and traced rounds);
3. checks the outputs (ground-truth accuracy, schema validity,
   agreement with the cold reference, identical outputs and work counts
   in every round, and for traced rounds that layer self times plus
   the residual add up to the traced wall time);
4. prints one JSON line: the end-to-end metrics (``--trace 0``) or the
   per-layer metrics (``--trace 1``), and exits 1 if a check failed.

Scratch files go under ``.perfbench/`` in the checkout and are removed
on exit, except the traced run's span summary
``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

from layers import CACHE_TIERS, PASS_NAMES, SELF_TIME_LAYERS, SpanRecorder  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
MIN_ROUNDS = 2
#: Allowed difference between traced wall time and the sum of layer
#: self times plus the residual (float rounding only).
SUM_TOLERANCE_S = 1e-6

PASSES = PASS_NAMES
TIERS = tuple(tier for tier, _module, _cls in CACHE_TIERS)

#: Every per-layer metric, mapped to its unit.  ``--trace 1`` prints all
#: but CHAIN_ONLY_SECONDS: the ``per_layer`` list of BENCHMARK.json.
PER_LAYER_UNITS: Dict[str, str] = {
    "evm.predecode.s": "s",
    "evm.predecode.calls": "count",
    "evm.disasm.s": "s",
    "evm.disasm.calls": "count",
    **{f"analysis.{p}.s": "s" for p in PASSES},
    **{f"analysis.{p}.calls": "count" for p in PASSES},
    "analysis.cfg.blocks": "count",
    "tase.s": "s",
    "tase.steps": "count",
    "tase.paths": "count",
    "tase.forks": "count",
    "tase.steps_per_s": "1/s",
    "inference.s": "s",
    "inference.calls": "count",
    "inference.events": "count",
    "inference.events_per_s": "1/s",
    "events.digest.s": "s",
    "events.digest.calls": "count",
    **{
        f"cache.{tier}.{what}": unit
        for tier in TIERS
        for what, unit in (
            ("get_s", "s"), ("put_s", "s"), ("hits", "count"),
            ("misses", "count"), ("writes", "count"), ("hit_ratio", "ratio"),
        )
    },
    "batch.self_s": "s",
    "batch.units": "count",
    "batch.dedup_ratio": "ratio",
    "obs.ledger.append_s": "s",
    "obs.ledger.records": "count",
    "api.self_s": "s",
    "residual_s": "s",
    "trace.wall_s": "s",
    "trace_overhead": "ratio",
}

#: Seconds of layers only ``chain-replay`` runs.  They read exactly 0
#: on the other workloads, and a time that reads the same on every run
#: looks like a broken clock to whoever compares runs, so they are
#: written to the trace file and stderr but left out of the printed line.
CHAIN_ONLY_SECONDS = (
    "cache.result.get_s", "cache.result.put_s",
    "batch.self_s", "obs.ledger.append_s",
)

END_TO_END_UNITS: Dict[str, str] = {
    "contracts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "sig_accuracy": "ratio",
    "abi_accuracy": "ratio",
    "layout_accuracy": "ratio",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: src/repro not found; run from the root of a checkout"
        )
    sys.path.insert(0, SRC)
    import repro  # noqa: F401

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _load_schemas() -> Dict[str, dict]:
    schemas = {}
    for kind in ("abi", "profile"):
        with open(os.path.join(ROOT, "docs", f"{kind}.schema.json"), encoding="utf-8") as f:
            schemas[kind] = json.load(f)
    return schemas


def _percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def _layer_metrics(summary: Dict[str, float], wall: float, rounds: int) -> Dict[str, float]:
    """Per-round per-layer metrics from the summed traced rounds."""
    def mean(key: str) -> float:
        return summary.get(key, 0) / rounds

    def ratio(numerator: str, denominator: float) -> float:
        return mean(numerator) / denominator if denominator else 0.0

    out: Dict[str, float] = {
        "evm.predecode.s": mean("evm.predecode.self_s"),
        "evm.predecode.calls": mean("evm.predecode.calls"),
        "evm.disasm.s": mean("evm.disasm.self_s"),
        "evm.disasm.calls": mean("evm.disasm.calls"),
        "analysis.cfg.blocks": mean("analysis.cfg.blocks"),
        "tase.s": mean("tase.self_s"),
        "tase.steps": mean("tase.steps"),
        "tase.paths": mean("tase.paths"),
        "tase.forks": mean("tase.forks"),
        "inference.s": mean("inference.self_s"),
        "inference.calls": mean("inference.calls"),
        "inference.events": mean("inference.events"),
        "events.digest.s": mean("events.digest.self_s"),
        "events.digest.calls": mean("events.digest.calls"),
        "batch.self_s": mean("batch.self_s"),
        "batch.units": mean("batch.units"),
        "obs.ledger.append_s": mean("obs.ledger.append.self_s"),
        "obs.ledger.records": mean("obs.ledger.records"),
        "api.self_s": mean("api.self_s"),
        "residual_s": (wall - summary["covered_s"]) / rounds,
        "trace.wall_s": wall / rounds,
    }
    out["tase.steps_per_s"] = ratio("tase.steps", out["tase.s"])
    out["inference.events_per_s"] = ratio("inference.events", out["inference.s"])
    contracts = mean("batch.contracts")
    out["batch.dedup_ratio"] = (
        1.0 - mean("batch.unique") / contracts if contracts else 0.0
    )
    for name in PASSES:
        out[f"analysis.{name}.s"] = mean(f"analysis.{name}.self_s")
        out[f"analysis.{name}.calls"] = mean(f"analysis.{name}.calls")
    for tier in TIERS:
        hits, misses = mean(f"cache.{tier}.hits"), mean(f"cache.{tier}.misses")
        out[f"cache.{tier}.get_s"] = mean(f"cache.{tier}.get.self_s")
        out[f"cache.{tier}.put_s"] = mean(f"cache.{tier}.put.self_s")
        out[f"cache.{tier}.hits"] = hits
        out[f"cache.{tier}.misses"] = misses
        out[f"cache.{tier}.writes"] = mean(f"cache.{tier}.writes")
        out[f"cache.{tier}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def _measure(workload, seconds: float, traced: bool):
    """Cold rounds for ``seconds``; traced runs alternate plain/traced.

    Returns (plain rounds, traced rounds, summed span summary, spans of
    the last traced round, problems found).
    """
    plain: List = []
    traced_rounds: List = []
    summed: Dict[str, float] = {}
    trace_counts: List[Dict[str, float]] = []
    problems: List[str] = []
    recorder = SpanRecorder()

    def keep(rounds: List, round_) -> None:
        # Every round must repeat the first one's outputs and work counts;
        # later rounds' outputs are dropped once compared.
        first = (plain + traced_rounds or [round_])[0]
        if round_ is not first:
            if round_.outputs != first.outputs:
                problems.append("a round's outputs differ from the first round's")
            if round_.counts != first.counts:
                problems.append(
                    f"a round's work counts {round_.counts} differ from the "
                    f"first round's {first.counts}"
                )
            round_.outputs = round_.raw = None
        rounds.append(round_)

    deadline = time.perf_counter() + seconds
    while True:
        keep(plain, workload.run_round())
        if traced:
            recorder.reset()
            keep(traced_rounds, workload.run_round(recorder))
            summary = recorder.summary()
            for entry in recorder.missing:
                problems.append(f"layer entry point {entry} not found")
            silent = [layer for layer in workload.LAYERS if not summary.get(f"{layer}.calls")]
            if silent:
                problems.append(f"traced round recorded no call of layers {silent}")
            layers_sum = sum(summary[f"{layer}.self_s"] for layer in SELF_TIME_LAYERS)
            if abs(layers_sum - summary["covered_s"]) > SUM_TOLERANCE_S:
                problems.append(
                    f"layer self times sum to {layers_sum!r} s but spans cover "
                    f"{summary['covered_s']!r} s"
                )
            trace_counts.append(
                {k: v for k, v in summary.items() if not k.endswith("_s")}
            )
            for key, value in summary.items():
                summed[key] = summed.get(key, 0.0) + value
        if time.perf_counter() >= deadline and len(plain) >= MIN_ROUNDS:
            break
    if any(counts != trace_counts[0] for counts in trace_counts):
        problems.append("work counts differ between traced rounds of one seed")
    return plain, traced_rounds, summed, list(recorder.spans), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](workdir, _load_schemas())
        setup_times = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(time.perf_counter() - begin)
        setup_s = import_s + statistics.median(setup_times)
        begin = time.perf_counter()
        workload.prepare()
        print(
            f"perfbench: warm-up and check references took "
            f"{time.perf_counter() - begin:.3f} s (not in setup_s)",
            file=sys.stderr,
        )

        plain, traced, summed, spans, problems = _measure(
            workload, args.seconds, bool(args.trace)
        )
        rounds = plain + traced
        checks = workload.check(plain[0])
        problems += checks.problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.contracts for r in rounds)
    failed = sum(r.failed for r in rounds)
    if failed:
        # The workloads are chosen so that no call fails.
        problems.append(
            f"{failed} of {attempted} calls raised, were truncated, or "
            "differ from the cold reference"
        )
    for round_ in rounds:
        for error in round_.errors:
            print(error, file=sys.stderr)
    if args.trace:
        traced_walls = [r.wall_s for r in traced]
        metrics = _layer_metrics(summed, sum(traced_walls), len(traced))
        metrics["trace_overhead"] = statistics.median(traced_walls) / statistics.median(
            r.wall_s for r in plain
        )
        _write_trace(base, args, metrics, plain[0].counts, spans)
        units = {k: u for k, u in PER_LAYER_UNITS.items() if k not in CHAIN_ONLY_SECONDS}
    else:
        latencies = [t for r in plain for t in r.latencies]
        # Every round makes the same calls in the same order: the median
        # of each call over the rounds shrugs off bursts of host noise.
        per_call = [statistics.median(times) for times in zip(*(r.latencies for r in plain))]
        metrics = {
            "contracts_per_s": plain[0].contracts / sum(per_call),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p95_ms": 1000 * _percentile(latencies, 0.95),
            "sig_accuracy": checks.sig_accuracy,
            "abi_accuracy": checks.abi_accuracy,
            "layout_accuracy": checks.layout_accuracy,
            "ok_share": 1.0 - failed / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"perfbench: {len(latencies)} latency samples", file=sys.stderr)
    for problem in dict.fromkeys(problems):
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def _write_trace(base, args, metrics, program_counts, spans) -> None:
    """Every layer metric (chain-only seconds included) and the spans of
    the last traced round, written once at the end of the run."""
    path = os.path.join(base, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "metrics": {k: metrics[k] for k in PER_LAYER_UNITS},
                "units": PER_LAYER_UNITS,
                "program_counts": program_counts,
                "span_fields": ["parent", "layer", "start", "end", "root"],
                "spans": spans,
            },
            handle,
            sort_keys=True,
        )
    for name in CHAIN_ONLY_SECONDS:
        print(f"perfbench: {name} = {metrics[name]!r} s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
