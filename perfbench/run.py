"""End-to-end benchmark of the ClouDiA advisor: the runner.

Run from the root of a checkout::

    python3 perfbench/run.py --workload advise --seed 1 --seconds 15 --trace 0

Workloads: ``advise``, ``solve``, ``watch``, ``serve`` (see README.md).
The runner owns the environment, so every measured process starts the
same way: ``PYTHONPATH=src``, BLAS / OpenMP thread pools pinned to one
thread, a fixed hash seed.  It then

* with ``--trace 0``: times set-up three times (two set-up-only processes
  plus the measured one) and reports the median as ``setup_s``, then
  reports the measured process's end-to-end metrics;
* with ``--trace 1``: runs one traced process and reports the per-layer
  metrics, a per-layer table and the tracing overhead against the last
  untraced run of the same workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The runner exits
non-zero, without that line, when the checkout holds no ``src/repro``
or a measured process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Per-run records (for the tracing overhead) and span dumps.
OUT_DIR = Path(".perfbench")
#: Set-up measurements per run; their median is ``setup_s``.
SETUP_SAMPLES = 3
#: The whole run must end within this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}


def per_layer_units() -> dict:
    """Units of the per-layer metrics, read from BENCHMARK.json."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def pinned_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, extra, env, deadline: float) -> dict:
    """Run bench.py to completion and parse its last output line."""
    command = [sys.executable, str(HERE / "bench.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        try:
            out, err = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise RuntimeError(f"{args.workload} run exceeded its time limit")
    if child.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"bench.py exited with code {child.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("bench.py printed no result")
    return json.loads(lines[-1])


def print_untraced(record: dict, setups: list) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"input digest {record['input_digest']}  "
          f"rounds {record['rounds']}  ops {record['attempted']}")
    print(f"work {json.dumps(record['work'])}")
    print("setup samples (s): " + ", ".join(f"{s:.3f}" for s in setups))
    print(f"cost ratio (plan / default plan): {record['cost_ratio']:.6f}")
    for kind, c in record["classes"].items():
        print(f"  {kind:>14}: n={c['n']:<5d} p50 {c['p50_ms']:9.2f} ms"
              f"   p90 {c['p90_ms']:9.2f} ms")
    for name, value in record["extra_per_round"].items():
        print(f"  per round {name}: {value:.6g}")


def print_traced(record: dict, untraced) -> None:
    print(f"per-layer table: {record['workload']} seed {record['seed']} "
          f"({record['rounds']} rounds, values per round)")
    print(f"  {'span':<28}{'calls':>12}{'busy ms':>12}{'self ms':>12}"
          f"{'self %':>9}")
    for name, calls, busy, self_ms, share in record["layer_table"]:
        print(f"  {name:<28}{calls:>12.1f}{busy:>12.2f}{self_ms:>12.2f}"
              f"{share:>8.1f}%")
    traced = record["metrics"]["round_s"]
    if untraced is None:
        print("tracing overhead: no untraced run of this workload recorded")
    else:
        base = untraced["metrics"]["round_s"]
        print(f"tracing overhead: round_s {traced:.4f} s traced vs "
              f"{base:.4f} s untraced (seed {untraced['seed']}): "
              f"{100.0 * (traced - base) / base:+.1f}%")
    print(f"spans written to {record['spans_file']} "
          f"({record['spans_dropped']} dropped)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("advise", "solve", "watch", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        print("run.py: no src/repro here; run it from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = pinned_env()
    OUT_DIR.mkdir(exist_ok=True)
    latest = OUT_DIR / f"untraced-{args.workload}.json"
    try:
        if args.trace:
            units = per_layer_units()
            record = run_child(args, [], env, deadline)
            untraced = (json.loads(latest.read_text(encoding="utf-8"))
                        if latest.is_file() else None)
            print_traced(record, untraced)
            values = record["per_layer"]
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in units.items()}
        else:
            setups = [run_child(args, ["--setup-only"], env,
                                deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            record = run_child(args, [], env, deadline)
            setups.append(record["metrics"]["setup_s"])
            record["metrics"]["setup_s"] = statistics.median(setups)
            record["setup_samples"] = setups
            latest.write_text(json.dumps(record), encoding="utf-8")
            print_untraced(record, setups)
            metrics = {name: {"value": record["metrics"][name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not record["problems"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
