"""One measured run of one workload, in a process of its own.

Started by ``run.py`` (which pins the thread counts in the environment)
from the root of a checkout; prints one JSON object as its last line::

    python3 perfbench/bench.py --workload solve --seed 3 --seconds 15 --trace 0

Timeline of a run:

1. **setup** — from before ``import repro`` to the first timed operation:
   imports, input generation from the seed, construction, one untimed
   warm-up and a ``gc.collect()``.  ``--setup-only`` stops here.
2. **rounds** — the workload's fixed round of work, repeated until the
   next round would overrun ``--seconds`` (serve also waits for 100
   samples per request class).  Each round is prepared untimed.
3. **checks and metrics** — every operation's checks, end-to-end metrics
   and, with ``--trace 1``, the per-layer numbers from the span tracer.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

#: Where runs leave their records, span dumps and temporary stores.
OUT_DIR = Path(".perfbench")

#: Solver keys with per-layer metrics (the ones the workloads run).
SOLVERS = ("greedy", "random", "local-search", "annealing")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("advise", "solve", "watch", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def percentile(values: List[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else float("nan")


def class_latencies(rounds) -> Dict[str, Dict[str, float]]:
    """Per operation class: sample count, p50 and p90 in milliseconds."""
    by_kind: Dict[str, List[float]] = {}
    for r in rounds:
        for kind, latency in zip(r.kinds, r.ops):
            by_kind.setdefault(kind, []).append(latency)
    return {kind: {"n": len(v), "p50_ms": percentile(v, 50) * 1e3,
                   "p90_ms": percentile(v, 90) * 1e3}
            for kind, v in sorted(by_kind.items())}


def per_layer(tracer, rounds) -> Dict[str, float]:
    """Per-layer metrics of the measured phase, per round."""
    stats = tracer.stats("run")
    counters = tracer.counters("run")
    n = len(rounds)

    def count(name):
        return stats.get(name, (0, 0.0, 0.0))[0] / n

    def busy(name):
        return stats.get(name, (0, 0.0, 0.0))[1] / n

    def self_time(name):
        return stats.get(name, (0, 0.0, 0.0))[2] / n

    def counter(name):
        return counters.get(name, 0.0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    m: Dict[str, float] = {}
    for layer in ("cloud.mean_latency", "cloud.sample_rtt"):
        m[layer + ".calls"] = count(layer)
        m[layer + ".busy_s"] = busy(layer)
    m["netmeasure.measure.busy_s"] = busy("netmeasure.measure")
    m["netmeasure.measure.samples"] = counter("netmeasure.measure.samples")
    m["netmeasure.cost_matrix.busy_s"] = busy("netmeasure.cost_matrix")
    m["core.compile.count"] = count("core.compile")
    m["core.compile.busy_s"] = busy("core.compile")
    m["core.fingerprint.busy_s"] = busy("core.fingerprint")
    m["core.refresh_costs.count"] = count("core.refresh_costs")
    m["core.refresh_costs.busy_s"] = busy("core.refresh_costs")
    m["core.evaluate_batch.plans"] = counter("core.evaluate_batch.plans")
    m["core.evaluate_batch.busy_s"] = busy("core.evaluate_batch")
    m["core.peek_many.calls"] = count("core.peek_many")
    m["core.peek_many.moves"] = counter("core.peek_many.moves")
    m["core.peek_many.busy_s"] = busy("core.peek_many")
    for layer in ("core.peek", "core.commit"):
        m[layer + ".count"] = count(layer)
        m[layer + ".busy_s"] = busy(layer)
    for key in SOLVERS:
        layer = "solvers." + key
        m[layer + ".busy_s"] = busy(layer)
        m[layer + ".self_s"] = self_time(layer)
        m[layer + ".iterations"] = counter(layer + ".iterations")
    m["solvers.accept_ratio"] = ratio(
        m["core.commit.count"],
        m["core.peek_many.moves"] + m["core.peek.count"])
    m["solvers.moves_per_s"] = ratio(
        m["solvers.local-search.iterations"]
        + m["solvers.annealing.iterations"],
        m["solvers.local-search.busy_s"] + m["solvers.annealing.busy_s"])
    m["solvers.plans_per_s"] = ratio(m["solvers.random.iterations"],
                                     m["solvers.random.busy_s"])
    m["session.solve.busy_s"] = busy("session.solve")
    m["session.prepare.busy_s"] = busy("session.prepare")
    compilations = sum(r.extra.get("compilations", 0) for r in rounds)
    compile_hits = sum(r.extra.get("compile_hits", 0) for r in rounds)
    m["session.compile_hit_ratio"] = ratio(compile_hits,
                                           compilations + compile_hits)
    for key in ("holds", "resolves", "store_hits"):
        m["session.watch." + key] = sum(
            r.extra.get(key, 0) for r in rounds) / n
    m["store.get.count"] = count("store.get")
    m["store.get.busy_s"] = busy("store.get")
    m["store.hit_ratio"] = ratio(counter("store.get.hits"),
                                 m["store.get.count"])
    m["store.put.count"] = count("store.put")
    m["store.put.busy_s"] = busy("store.put")

    # serve: client latency split across the server's layers, per op
    handle = tracer.durations("serve.handle")
    parse = tracer.durations("serve.parse")
    fingerprint = tracer.durations("core.fingerprint")
    store_get = tracer.durations("store.get")
    http = 0.0
    hit = {"http": [], "handle": [], "parse": [], "fingerprint": [],
           "store_get": []}
    for r in rounds:
        for op, kind, latency in zip(r.op_ids, r.kinds, r.ops):
            outside = latency - handle.get(op, 0.0)
            http += outside
            if kind == "hit":
                hit["http"].append(outside)
                hit["handle"].append(handle.get(op, 0.0))
                hit["parse"].append(parse.get(op, 0.0))
                hit["fingerprint"].append(fingerprint.get(op, 0.0))
                hit["store_get"].append(store_get.get(op, 0.0))
    m["serve.http.busy_s"] = http / n
    m["serve.parse.busy_s"] = busy("serve.parse")
    m["serve.handle.busy_s"] = busy("serve.handle")
    m["serve.queue_wait_s"] = counter("serve.queue_wait_s")
    m["serve.worker.busy_s"] = busy("serve.worker")
    for part, values in hit.items():
        m[f"serve.hit.{part}_ms"] = (
            sum(values) / len(values) * 1e3 if values else 0.0)
    return m


def layer_table(tracer, rounds) -> List[list]:
    """Rows ``[span, calls/round, busy ms/round, self ms/round, self %]``."""
    n = len(rounds)
    wall = sum(r.wall_s for r in rounds) / n
    rows = []
    for name, (calls, busy_s, self_s) in tracer.stats("run").items():
        rows.append([name, calls / n, busy_s / n * 1e3, self_s / n * 1e3,
                     100.0 * self_s / n / wall if wall else 0.0])
    rows.sort(key=lambda row: -row[3])
    return rows


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro  # noqa: F401 - the import is part of set-up
    import workloads

    parts = {"import_s": time.perf_counter() - started}
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                dir=OUT_DIR / "tmp"))
    workload = None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp, tracer)
        work_error = workload.check_work()
        parts["inputs_s"] = time.perf_counter() - started - sum(parts.values())
        workload.warm_up()
        gc.collect()
        setup_s = time.perf_counter() - started
        parts["warm_up_s"] = setup_s - sum(parts.values())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "parts": parts}))
            return 0

        if tracer is not None:
            tracer.phase = "run"
        rounds = []
        measure_start = time.perf_counter()
        while True:
            prepared = workload.prepare(len(rounds))
            rounds.append(workload.run_round(len(rounds), prepared))
            elapsed = time.perf_counter() - measure_start
            if workload.finished(rounds, elapsed, args.seconds):
                break
        if tracer is not None:
            tracer.phase = "checks"
        record = summarise(args, workload, rounds, setup_s, work_error,
                           measured_s=elapsed)
        record["setup_parts"] = parts
        if tracer is not None:
            record["per_layer"] = per_layer(tracer, rounds)
            record["per_layer"]["quality.cost_ratio"] = record["cost_ratio"]
            record["layer_table"] = layer_table(tracer, rounds)
            if args.workload == "serve":
                # The transport has no span of its own: client latency
                # minus the time inside AdvisorApp.handle.
                http_ms = record["per_layer"]["serve.http.busy_s"] * 1e3
                wall_ms = record["metrics"]["round_s"] * 1e3
                record["layer_table"].insert(0, [
                    "serve.http (client-handle)", len(rounds[0].ops),
                    http_ms, http_ms, 100.0 * http_ms / wall_ms])
            spans_path = OUT_DIR / (f"spans-{args.workload}-seed{args.seed}"
                                    ".json")
            tracer.write(spans_path)
            record["spans_file"] = str(spans_path)
            record["spans_dropped"] = tracer.dropped
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record))
    return 0


def summarise(args, workload, rounds, setup_s: float, work_error,
              measured_s: float) -> Dict:
    """End-to-end metrics, checks and bookkeeping of one run."""
    import numpy as np

    ops = [latency for r in rounds for latency in r.ops]
    attempted = len(ops)
    failed_ops = sum(r.failed for r in rounds)
    problems: List[str] = []
    if args.workload == "serve":
        failed_ops += workload.verify()
        cost_ratio = workload.cost_ratio()
    else:
        reference = rounds[0].ratios
        for r in rounds[1:]:
            if r.ratios != reference:  # rounds repeat identical work
                failed_ops += len(r.ops) - r.failed
                problems.append("cost ratios differ between rounds")
        cost_ratio = float(np.mean(reference))
    if work_error is not None:
        problems.append(work_error)
        failed_ops = attempted
    failed_ops = min(failed_ops, attempted)
    if failed_ops:
        problems.append(f"{failed_ops} operations failed their checks")

    walls = [r.wall_s for r in rounds]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_s": float(np.median(walls)),
        "ops_per_s": attempted / sum(walls),
        "op_p50_ms": percentile(ops, 50) * 1e3,
        "op_p90_ms": percentile(ops, 90) * 1e3,
    }
    extra: Dict[str, float] = {}
    for r in rounds:
        for key, value in r.extra.items():
            extra[key] = extra.get(key, 0.0) + value
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": workload.digest,
        "work": workload.work,
        "rounds": len(rounds),
        "measured_s": measured_s,
        "attempted": attempted,
        "failed": failed_ops,
        "problems": problems,
        "metrics": metrics,
        "cost_ratio": cost_ratio,
        "classes": class_latencies(rounds),
        "extra_per_round": {k: v / len(rounds) for k, v in extra.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
