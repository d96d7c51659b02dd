#!/usr/bin/env python3
"""The repository benchmark: one command, one workload, one JSON line.

    python3 rpubench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

(--workload all runs the four in turn and prefixes each metric with
its workload.)

Run it from the root of a checkout. It builds the rpu library and the
measuring program (rpubench/CMakeLists.txt) into $CARGO_TARGET_DIR/rpubench
(default .bench_build/rpubench), runs the workload, checks every
output, and prints a human table followed, on the last line, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(the traced run also writes a Chrome trace-event file). The full
record — every metric with its unit and sample count, plus nproc, the
host SIMD ISA, the build type and the git sha — is written next to the
build as result-<workload>-seed<n>-trace<t>.json. The exit code is
nonzero on any incorrect output or failed build.

Workloads. BENCHMARK.json lists the two whose figures held within the
bounds on the 4-core x86-64 development host; the other two run the
same way and serve A/B work with steady.py:

serve_small  open loop, Poisson 50 ops/s (fixed and absolute, so
             parent and change see one load), then a saturation phase;
             HeServer, 4 tenants of CKKS n=1024 / 3 x 45-bit towers,
             MulPlainRescale only, 1 serial device, 1 dispatcher,
             coalescing on. Per-launch fixed cost and the serve layer
             (queue, coalescing, placement) dominate.
ntt_paper    closed loop of forward 64K NTT launches, 124-bit modulus,
             default (128, 128) RpuConfig, via RpuDevice::launch:
             interpreter work only; its modelled time is the paper's
             Fig. 10 point.
serve_mixed  open loop, Poisson 50 ops/s, then saturation; 8 tenants
             (4 at n=1024/L=3, 4 at n=4096/L=4), 20% MulCtRescale,
             a 4-device RpuTopology, 2 dispatchers, default policy.
             Not in BENCHMARK.json: its p50 moved 27% between runs
             (bound 25%). A short serve_mixed probe in every traced run
             still reports the placement layer (split, steal, balance).
ckks_pool    closed loop of CKKS mulCt + rescale at n=4096, L=4 on one
             device with a 4-worker pool. Not in BENCHMARK.json: with
             13% of the host's CPU time stolen by its hypervisor its
             p50 and capacity moved 26-29% between runs. The traced
             run's pool.batch_speedup probe times the same op pooled
             against serial.

The open loop's latency tail is reported per layer (latency.tail_ms),
not end to end: it moved 28-35% between runs even at 50 ops/s, as the
host's slow spells stretch service times.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("serve_small", "serve_mixed", "ntt_paper", "ckks_pool")
SERVE = ("serve_small", "serve_mixed")
IMAGES = ("pointwise_n1024_t3", "ntt_n1024_t3", "ntt_n4096_t4", "ntt_n65536")
MEASURE_TIMEOUT_S = 170

# Layers every sampled request's span chain must reach, per workload.
LAUNCH_CHAIN = {"device.execute", "sim.state_init", "sim.stage", "sim.run",
                "sim.dump"}
SERVE_CHAIN = LAUNCH_CHAIN | {"serve.request", "serve.submit", "serve.queue",
                              "serve.service", "session.run_serial",
                              "ckks.encrypt", "ckks.rescale", "ckks.decrypt"}
CHAIN = {"serve_small": SERVE_CHAIN, "serve_mixed": SERVE_CHAIN,
         "ntt_paper": LAUNCH_CHAIN | {"device.launch"},
         "ckks_pool": LAUNCH_CHAIN | {"ckks.op", "ckks.mul_ct", "ckks.rescale"}}


def log(msg):
    print("rpubench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "rpubench")


def build_env(out):
    """The environment with TMPDIR inside the build directory, so the
    compilers' temporary files stay in the checkout."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure once, then (re)build the measuring program; returns
    its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=build_env(out))
    subprocess.run(["cmake", "--build", out, "--target", "rpubench_measure",
                    "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr,
                   env=build_env(out))
    return os.path.join(out, "rpubench_measure")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


class Metrics:
    """Ordered metrics: name -> {value, unit, samples}."""

    def __init__(self):
        self.items = {}

    def put(self, name, value, unit, samples=1):
        self.items[name] = {"value": value, "unit": unit, "samples": samples}


def latencies_ms(rec, workload):
    """Latencies of the timed ops in time order: due-to-done for the
    open loop (None where rejected), the op call otherwise."""
    se = rec["series"]
    if workload in SERVE:
        return benchlib.due_latencies_ms(
            se["open.lag_us"], se["open.total_us"],
            [bool(a) for a in se["open.accepted"]])
    return [u / 1e3 for u in se["closed.op_us"]]


def end_to_end(rec, workload):
    """(metrics, attempted, failed, problems) of a run record."""
    sc, se = rec["scalars"], rec["series"]
    clock_ghz = sc["env.design_clock_ghz"]
    problems = []
    m = Metrics()
    lat_all = latencies_ms(rec, workload)
    lat = [x for x in lat_all if x is not None]
    if workload in SERVE:
        accepted = [bool(a) for a in se["open.accepted"]]
        correct = [bool(c) for c in se["open.correct"]]
        attempted = len(accepted) + int(sc["sat.attempted"])
        failed = (accepted.count(False) + sum(1 for a, c in zip(accepted, correct)
                                              if a and not c)
                  + int(sc["sat.failed"]))
        if sc["check.mismatched"]:
            problems.append("%d served responses differ from runSerial"
                            % sc["check.mismatched"])
        if sc["replay.failed"]:
            problems.append("%d replay requests failed" % sc["replay.failed"])
        ok = benchlib.ok_ratio(accepted, correct, lat_all, sc["spec.limit_ms"])
        n_ok = len(accepted)
        capacity = sc["sat.completed"] / sc["sat.seconds"]
        n_cap = int(sc["sat.completed"])
        model = sc["replay.makespan_cycles"] / (clock_ghz * 1e3) / sc["replay.requests"]
        n_model = int(sc["replay.requests"])
    else:
        correct = [bool(c) for c in se["closed.correct"]]
        attempted = len(lat)
        failed = correct.count(False)
        if sc.get("check.golden_bad"):
            problems.append("golden products off the plaintext product")
        ok = benchlib.ok_ratio([True] * len(lat), correct, lat,
                               sc["spec.limit_ms"])
        n_ok = len(lat)
        capacity = len(lat) / (sum(lat) / 1e3)
        n_cap = len(lat)
        model = sc["model.us_per_op"]
        n_model = int(sc["ledger.ops"]) if workload == "ckks_pool" else 1
    paper = sc["model.paper_ntt64k_us"]
    m.put("p50_ms", statistics.median(lat), "ms", len(lat))
    m.put("ok_ratio", ok, "ratio", n_ok)
    m.put("capacity_ops_per_s", capacity, "ops/s", n_cap)
    m.put("model_us_per_op", model, "us-modelled", n_model)
    m.put("model_err_pct", abs(sc["model.ntt64k_us"] - paper) / paper * 100,
          "%", 1)
    m.put("setup_s", statistics.median(se["setup_s"]), "s", len(se["setup_s"]))
    m.put("peak_rss_mb", sc["peak_rss_mb"], "MiB", 1)
    return m, attempted, failed, problems


def per_layer(rec, workload):
    """The per-layer metrics of a traced run and its problems."""
    sc, se = rec["scalars"], rec["series"]
    problems = []
    m = Metrics()
    # Serve layer: the workload's own open loop, or the serve probe;
    # placement across devices always from a multi-device server.
    p = "" if workload in SERVE else "probe."
    t = "" if workload == "serve_mixed" else "probe."
    acc = [bool(a) for a in se[p + "open.accepted"]]
    queue_ms = [q / 1e3 for q, a in zip(se[p + "open.queue_us"], acc) if a]
    service_ms = [s / 1e3 for s, a in zip(se[p + "open.service_us"], acc) if a]
    lag_ms = [x / 1e3 for x in se[p + "open.lag_us"]]
    completed = sc[p + "server.completed"]
    chunks = sc[p + "server.chunks"]
    m.put("serve.submit_us", statistics.median(se[p + "open.submit_us"]), "us",
          len(acc))
    m.put("serve.queue_wait_ms.p50", statistics.median(queue_ms), "ms",
          len(queue_ms))
    m.put("serve.queue_wait_ms.tail", benchlib.tail(queue_ms)[0], "ms",
          len(queue_ms))
    m.put("serve.service_ms.p50", statistics.median(service_ms), "ms",
          len(service_ms))
    m.put("serve.rejected_share", acc.count(False) / len(acc), "ratio", len(acc))
    m.put("serve.reqs_per_chunk", completed / chunks, "count", int(chunks))
    m.put("serve.coalesced_share", sc[p + "server.coalesced_requests"] / completed,
          "ratio", int(completed))
    t_chunks = sc[t + "server.chunks"]
    m.put("serve.split_share", sc[t + "server.split_chunks"] / t_chunks, "ratio",
          int(t_chunks))
    m.put("serve.stolen_share", sc[t + "server.stolen_chunks"] / t_chunks,
          "ratio", int(t_chunks))
    busy, span = sc[t + "replay.busy_cycles"], sc[t + "replay.makespan_cycles"]
    m.put("topology.balance", busy / (sc[t + "replay.devices"] * span), "ratio", 1)
    m.put("topology.busy_cycles_per_req", busy / sc[t + "replay.requests"],
          "cycles", int(sc[t + "replay.requests"]))
    m.put("gen.lag_ms.tail", benchlib.tail(lag_ms)[0], "ms", len(lag_ms))
    # The workload's own latency tail (the traced run's load phase).
    lat = [x for x in latencies_ms(rec, workload) if x is not None]
    m.put("latency.tail_ms", benchlib.segment_tail(lat)[0], "ms", len(lat))

    # Device ledger of the workload's own timed window.
    ops = completed if workload in SERVE else sc["ledger.ops"]
    lookups = sc["ledger.kernel_hits"] + sc["ledger.kernel_misses"]
    m.put("device.launches_per_req", sc["ledger.launches"] / ops, "count", int(ops))
    m.put("device.staged_words_per_req", sc["ledger.staged_words"] / ops, "words",
          int(ops))
    m.put("device.kernel_hit_ratio",
          sc["ledger.kernel_hits"] / lookups if lookups else 1.0, "ratio",
          int(lookups))
    m.put("device.contended_share",
          sc["ledger.contended_launches"] / sc["ledger.launches"], "ratio",
          int(sc["ledger.launches"]))
    m.put("device.cached_kernels", sc["ledger.cached_kernels"], "count", 1)

    # Fixed-shape probes: device, sim, codegen, rlwe, poly, pool.
    def med(key):
        return statistics.median(se[key]), len(se[key])

    def put_med(name, key, unit):
        value, n = med(key)
        m.put(name, value, unit, n)

    for img in IMAGES:
        launch, n_launch = med("layer.launch_us." + img)
        run, n_run = med("layer.run_us." + img)
        m.put("device.launch_us." + img, launch, "us", n_launch)
        m.put("device.fixed_share." + img, (launch - run) / launch, "ratio",
              n_launch)
        put_med("sim.state_init_us." + img, "layer.state_init_us." + img, "us")
        m.put("sim.run_us." + img, run, "us", n_run)
        m.put("sim.inst_per_s." + img,
              sc["layer.inst_per_launch." + img] / (run * 1e-6), "1/s", n_run)
        m.put("sim.lane_ops_per_launch." + img,
              sc["layer.lane_ops_per_launch." + img], "count", n_run)
        put_med("codegen.kernel_gen_ms." + img, "layer.codegen_ms." + img, "ms")
    for op in ("encrypt", "mul_plain", "mul_ct", "relin", "rescale", "decrypt"):
        put_med("rlwe.%s_us" % op, "layer.%s_us" % op, "us")
    put_med("rlwe.keygen_ms", "layer.keygen_ms", "ms")
    put_med("rlwe.relin_keygen_ms", "layer.relin_keygen_ms", "ms")
    m.put("rlwe.transforms_per_op", sc["layer.transforms_per_op"], "count")
    m.put("rlwe.keyswitch_transforms_per_op",
          sc["layer.keyswitch_transforms_per_op"], "count")
    put_med("poly.host_ntt_us.n1024", "layer.host_ntt_us.n1024", "us")
    put_med("poly.host_ntt_us.n4096", "layer.host_ntt_us.n4096", "us")
    put_med("pool.job_roundtrip_us", "layer.pool_roundtrip_us", "us")
    serial, n_serial = med("layer.pool_serial_op_us")
    m.put("pool.batch_speedup", serial / med("layer.pool_pooled_op_us")[0],
          "ratio", n_serial)

    # Harness: the traced replay.
    spans = rec.get("spans", [])
    plain, traced = se["trace.plain_us"], se["trace.traced_us"]
    cov = benchlib.coverage(spans)
    if cov is None:
        problems.append("the traced replay recorded no spans")
        cov = 0.0
    m.put("trace.coverage", cov, "ratio", len(spans))
    m.put("trace.overhead_pct", (sum(traced) / sum(plain) - 1) * 100, "%",
          len(traced))
    if not all(se["trace.correct"]):
        problems.append("a traced replay result differs from the served one")
    chains = benchlib.span_chains(spans)
    if len(chains) != len(se["trace.correct"]):
        problems.append("expected one span chain per sampled request, got %d"
                        % len(chains))
    for request, names in sorted(chains.items()):
        missing = CHAIN[workload] - names
        if missing:
            problems.append("request %d's span chain lacks %s"
                            % (request, ", ".join(sorted(missing))))
    return m, problems


def print_table(result):
    print("rpubench %s seed=%d trace=%d  (%s, %s, nproc=%d, %s)" % (
        result["workload"], result["seed"], result["trace"],
        result["env"]["simd_isa"], result["env"]["build_type"],
        result["env"]["nproc"], result["env"]["git_sha"][:12]))
    for name, v in result["metrics"].items():
        print("  %-42s %14.6g %-12s n=%d" % (
            name, v["value"], v["unit"], v["samples"]))
    print("  correct=%s attempted=%d failed=%d%s" % (
        result["correct"], result["attempted"], result["failed"],
        "".join("\n  PROBLEM: " + p for p in result["problems"])))


def run_workload(program, workload, seed, seconds, trace):
    """Run one workload; returns its result record, or None when the
    measuring program failed or wrote an incomplete record."""
    out = build_dir()
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    raw = os.path.join(out, "raw-%s.json" % tag)
    if os.path.exists(raw):
        os.remove(raw)
    t0 = time.monotonic()
    try:
        subprocess.run([program, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                        "--out", raw],
                       check=True, timeout=MEASURE_TIMEOUT_S, stdout=sys.stderr)
        with open(raw) as f:
            rec = json.load(f)
        m, attempted, failed, problems = end_to_end(rec, workload)
        if trace:
            m, layer_problems = per_layer(rec, workload)
            problems += layer_problems
    except (OSError, ValueError, KeyError, ZeroDivisionError,
            subprocess.SubprocessError) as e:
        log("%s: the measuring program failed or wrote an incomplete "
            "record: %r" % (workload, e))
        return None
    bad = [n for n, v in m.items.items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    problems += ["metric %s is not a finite number" % n for n in bad]

    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "wall_s": time.monotonic() - t0,
        "env": {"nproc": int(rec["scalars"]["env.nproc"]),
                "simd_isa": rec["strings"]["env.simd_isa"],
                "build_type": rec["strings"]["env.build_type"],
                "git_sha": git_sha()},
        "correct": failed == 0 and not problems, "attempted": attempted,
        "failed": failed, "problems": problems, "metrics": m.items,
    }
    with open(os.path.join(out, "result-%s.json" % tag), "w") as f:
        json.dump(result, f, indent=1)
    if trace:
        with open(os.path.join(out, "trace-%s.json" % tag), "w") as f:
            json.dump(benchlib.chrome_trace(rec.get("spans", [])), f)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        program = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in workloads:
        result = run_workload(program, w, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print_table(result)
        results.append(result)

    # With one workload the metric names are the bare ones BENCHMARK.json
    # declares; "all" prefixes each with its workload.
    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for n, v in r["metrics"].items():
            name = "%s.%s" % (r["workload"], n) if prefix else n
            metrics[name] = {"value": v["value"], "unit": v["unit"]}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
