#!/usr/bin/env python3
"""Steadiness and seed-discipline checks for the repository benchmark.

Run from the repository root:

  python3 perfbench/check.py spread [--seeds 10] [--workload NAME ...]
      Runs each workload once per seed (1..N) with the BENCHMARK.json command
      and run_seconds, and prints, for every end-to-end metric, the median and
      the quartile spread (Q3 - Q1) / median next to the metric's bound.
      Fails if a spread, setup_s included, exceeds its bound.

  python3 perfbench/check.py determinism [--seconds 2] [--workload NAME ...]
      Runs each workload twice on one seed and once on another, untraced and
      traced. Fails unless every virtual-time metric repeats exactly on the
      same seed and the generated inputs (the inputs_digest line) differ
      between seeds.

Exit code 0 when every check passes.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics measured on the host clock; every other metric is virtual time or
# a count of simulated work and must repeat exactly for a fixed seed.
HOST_METRICS = {
    "sim_ops_per_host_s", "setup_s", "peak_rss_mb", "sim.host_ns_per_event",
    "probe.sim.dispatch_ns", "probe.rpc.serialize_ns",
    "probe.pool.acquire_release_ns", "trace.host_overhead_pct",
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         timeout=900)
    lines = res.stdout.decode().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit("run failed (%d): %s" % (res.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    digest = next((l.split("inputs_digest=")[1] for l in lines if "inputs_digest=" in l), None)
    return result, digest


def spread(args, spec):
    ok = True
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in names:
        values = {}
        for seed in range(1, args.seeds + 1):
            result, _ = run_once(spec, workload, seed, spec["run_seconds"], 0)
            if not result["correct"] or result["failed"]:
                print("%s seed %d: correct=%s failed=%d" % (workload, seed, result["correct"],
                                                              result["failed"]))
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d seeds)" % (workload, args.seeds))
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else float("inf")
            steady = share < metric["bound"] / 3
            if share > metric["bound"]:
                ok = False
            print("  %-20s median %14.4f  spread %6.3f  bound %.3f  %-6s  range %.4g..%.4g" % (
                metric["name"], med, share, metric["bound"],
                "steady" if steady else "WIDE", min(v), max(v)))
    return ok


def determinism(args, spec):
    ok = True
    names = args.workload or [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace in (0, 1):
            a, da = run_once(spec, workload, 7, args.seconds, trace)
            b, db = run_once(spec, workload, 7, args.seconds, trace)
            c, dc = run_once(spec, workload, 8, args.seconds, trace)
            differs = [n for n, m in a["metrics"].items()
                       if n not in HOST_METRICS and m["value"] != b["metrics"][n]["value"]]
            same_inputs = da == dc
            status = "ok"
            if differs or da != db or same_inputs or not (a["correct"] and b["correct"] and c["correct"]):
                status = "FAIL"
                ok = False
            print("%-16s trace=%d  virtual metrics repeat: %s  inputs change with seed: %s  %s" % (
                workload, trace, "yes" if not differs else "NO " + ",".join(differs),
                "no" if same_inputs else "yes", status))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--seeds", type=int, default=10)
    sp.add_argument("--workload", action="append")
    dp = sub.add_parser("determinism")
    dp.add_argument("--seconds", type=int, default=2)
    dp.add_argument("--workload", action="append")
    args = ap.parse_args()
    spec = load_spec()
    ok = spread(args, spec) if args.cmd == "spread" else determinism(args, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
