#!/usr/bin/env python3
"""Steadiness and A/B tool for the repository benchmark.

Steadiness: run one workload k times with seeds 1..k (or --seeds) and
print each metric's median, quartiles and quartile spread (q3 - q1,
as a share of the median) against the metric's bound in
BENCHMARK.json:

    python3 rpubench/steady.py --workload serve_small --runs 10

A/B: alternate runs of a parent checkout and this one on the same
seeds, flipping which side goes first each pair, and apply the gain
rule: the change must win at least 9 of 10 pairs and the medians must
differ by more than the parent's own quartile spread. Both checkouts
must contain rpubench/; each builds into its own .bench_build.

    python3 rpubench/steady.py --workload ntt_paper --runs 10 --ab ../parent

Each run's printed JSON line is appended to --log (JSON lines) when
given, so a session's runs can be reported in full.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def load_config(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, cfg, workload, seed, seconds, trace, log):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                      proc.returncode))
    result = json.loads(lines[-1])
    if log:
        with open(log, "a") as f:
            f.write(json.dumps({"root": root, "workload": workload,
                                "seed": seed, "trace": trace,
                                "result": result}) + "\n")
    return {k: v["value"] for k, v in result["metrics"].items()}


def specs(cfg, trace):
    if trace:
        return {m["name"]: dict(m, bound=None) for m in cfg["per_layer"]}
    return {m["name"]: m for m in cfg["end_to_end"]}


def summarize(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, benchlib.quartile_spread(values)


def steadiness(args, cfg):
    runs = {}
    for seed in args.seeds:
        for name, v in run_once(ROOT, cfg, args.workload, seed, args.seconds,
                                args.trace, args.log).items():
            runs.setdefault(name, []).append(v)
        print("  seed %d done" % seed, file=sys.stderr, flush=True)
    print("%s: %d runs, seeds %s" % (args.workload, len(args.seeds),
                                     ",".join(map(str, args.seeds))))
    print("  %-40s %12s %12s %12s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    wide = 0
    for name, m in specs(cfg, args.trace).items():
        vals = runs.get(name)
        if not vals:
            print("  %-40s missing" % name)
            wide += 1
            continue
        med, q1, q3, spread = summarize(vals)
        bound = m.get("bound")
        if bound is None or name == "setup_s":
            verdict = "-"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
            wide += 1
        print("  %-40s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound,
            verdict))
    return 1 if wide else 0


def ab(args, cfg):
    parent = os.path.abspath(args.ab)
    pcfg = load_config(parent)
    sides = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = [("parent", parent, pcfg), ("change", ROOT, cfg)]
        if i % 2:
            order.reverse()
        pair = {}
        for side, root, c in order:
            pair[side] = run_once(root, c, args.workload, seed, args.seconds,
                                  args.trace, args.log)
        sides["parent"].append(pair["parent"])
        sides["change"].append(pair["change"])
        print("  pair %d (seed %d) done" % (i + 1, seed), file=sys.stderr,
              flush=True)
    print("%s: %d alternating pairs" % (args.workload, len(args.seeds)))
    print("  %-34s %12s %12s %10s %10s %6s  %s" % (
        "metric", "parent med", "change med", "par spread", "delta", "wins",
        "verdict"))
    for name, m in specs(cfg, args.trace).items():
        pv = [r[name] for r in sides["parent"] if name in r]
        cv = [r[name] for r in sides["change"] if name in r]
        if len(pv) != len(cv) or not pv:
            print("  %-34s missing on one side" % name)
            continue
        pmed, pq1, pq3, _ = summarize(pv)
        cmed = statistics.median(cv)
        lower = m["better"] == "lower"
        wins = sum(1 for p, c in zip(pv, cv) if (c < p if lower else c > p))
        gain = (pmed - cmed) if lower else (cmed - pmed)
        if wins >= 0.9 * len(pv) and abs(cmed - pmed) > (pq3 - pq1) and gain > 0:
            verdict = "GAIN"
        elif m.get("bound") is not None and -gain > m["bound"] * abs(pmed):
            verdict = "REGRESSION"
        else:
            verdict = "no claim"
        print("  %-34s %12.6g %12.6g %10.4g %+10.4g %3d/%-2d  %s" % (
            name, pmed, cmed, pq3 - pq1, cmed - pmed, wins, len(pv), verdict))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")])
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ab", metavar="PARENT_CHECKOUT")
    ap.add_argument("--log", metavar="JSONL")
    args = ap.parse_args()
    cfg = load_config(ROOT)
    args.seeds = args.seeds or list(range(1, args.runs + 1))
    args.seconds = args.seconds or cfg["run_seconds"]
    return ab(args, cfg) if args.ab else steadiness(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
