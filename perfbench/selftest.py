#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload it runs a short end-to-end run and three traced runs:
two with the default seed and one with a held-out seed. It checks that

- every run reports correct answers and 0 failed statements (the traced
  runs also check trace fidelity: the replay's plan-cache and I/O counts
  and answers equal the untraced run's);
- each workload has the shape it exists for (see SHAPES);
- the two default-seed traced runs give identical counts.

It prints every end-to-end metric under its class name and exits non-zero
on any failure.
"""

import json
import subprocess
import sys

DEFAULT_SEED = 42
HELD_OUT_SEED = 7
WORKLOADS = ["dashboard", "adhoc", "report_ingest"]

# The class each end-to-end slot measures, per workload.
CLASSES = {
    "dashboard": ("topk_p50_ms", "topk_p95_ms", "fetch_p50_ms"),
    "adhoc": ("cold4_p50_ms", "cold4_p90_ms", "cold2_p50_ms"),
    "report_ingest": ("report_p50_ms", "report_p95_ms", "write_p50_ms"),
}

# Per-layer counts that must repeat exactly across runs with one seed.
COUNTS = [
    "core.plans_generated2",
    "core.plans_generated4",
    "core.exchange_plans",
    "exec.rankjoin_depth",
    "exec.rows_examined_per_row",
    "storage.page_reads",
    "storage.pool_hit_rate",
    "storage.index_node_reads",
    "server.cache_hit_rate",
    "server.cache_stale",
    "server.cache_evictions",
    "server.reply_bytes",
]

# Why each workload exists, as checks on its traced run.
SHAPES = {
    "dashboard": [
        ("plan-cache hit rate >= 0.9", lambda m: m["server.cache_hit_rate"] >= 0.9),
        ("no page reads after warm-up", lambda m: m["storage.page_reads"] == 0),
    ],
    "adhoc": [
        ("plan-cache hit rate 0", lambda m: m["server.cache_hit_rate"] == 0),
        ("planning > half of statement time", lambda m: m["core.optimize_share"] > 0.5),
    ],
    "report_ingest": [
        ("page reads per statement > 0", lambda m: m["storage.page_reads"] > 0),
        ("plans with an exchange > 0", lambda m: m["core.exchange_plans"] > 0),
        ("stale plan-cache lookups > 0", lambda m: m["server.cache_stale"] > 0),
    ],
}


def run(workload, seed, trace, seconds=2):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if not lines:
        return None, out.stderr
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, out.stdout + out.stderr
    return result, out.stdout


def main():
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in WORKLOADS:
        result, log = run(w, DEFAULT_SEED, 0)
        check(result is not None and result["correct"] and result["failed"] == 0,
              f"{w}: end-to-end run, 0 failed statements")
        if result is None:
            print(log)
            continue
        m = result["metrics"]
        p50, tail, side = CLASSES[w]
        for name, slot in ((p50, "main_p50_ms"), (tail, "main_tail_ms"),
                           (side, "side_p50_ms")):
            print(f"     {w} {name} = {m[slot]['value']:.4f} ms ({slot})")
        print(f"     {w} throughput_sps = {m['throughput_sps']['value']:.1f} 1/s, "
              f"setup_s = {m['setup_s']['value']:.3f} s")

        traced = {}
        for label, seed in (("first", DEFAULT_SEED), ("second", DEFAULT_SEED),
                            ("held-out", HELD_OUT_SEED)):
            result, log = run(w, seed, 1)
            ok = result is not None and result["correct"] and result["failed"] == 0
            check(ok, f"{w}: traced run ({label} seed {seed}) correct, trace fidelity holds")
            if result is None:
                print(log)
                continue
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            traced[label] = metrics
            for what, holds in SHAPES[w]:
                check(holds(metrics), f"{w}: seed {seed}: {what}")
        if "first" in traced and "second" in traced:
            differ = [c for c in COUNTS if traced["first"][c] != traced["second"][c]]
            check(not differ, f"{w}: two traced runs give identical counts"
                  + (f" (differ: {', '.join(differ)})" if differ else ""))
            overhead = traced["first"]["trace.untraced_sps"] / traced["first"]["trace.traced_sps"] - 1
            print(f"     {w} tracing overhead {100 * overhead:+.1f}%")

    print(f"{len(problems)} check(s) failed" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
