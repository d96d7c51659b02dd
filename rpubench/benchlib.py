"""Statistics, trace and schema helpers of the repository benchmark.

The C++ measuring program (measure/) only records raw samples; every number the benchmark
reports is computed here, so the rules the metrics rest on are tested
in one place (test_benchlib.py):

* percentiles use the ceil-rank convention of bench/bench_util.hh;
* a tail is reported at the highest percentile (at most p99) that
  still has at least ten samples beyond it; the end-to-end tail is the
  median of that tail over three or five time segments of the run;
* open-loop latency runs from when a request was due, so a late
  generator counts against the system;
* ok_ratio counts rejections, failures, wrong answers and latency
  misses against the number attempted;
* a span's self time is its duration minus the union of its
  children's intervals (clipped to it).
"""

import math
import re
import statistics

TAIL_CAP = 0.99
TAIL_BEYOND = 10

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def percentile(values, q):
    """The q-quantile (0 < q <= 1) of values by ceil rank, inclusive."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered), max(rank, 1)) - 1]


def tail_quantile(n, cap=TAIL_CAP, beyond=TAIL_BEYOND):
    """Highest quantile <= cap with at least `beyond` of n samples
    above its ceil-rank position, or None when n is too small."""
    if n <= beyond:
        return None
    # Samples strictly above the rank-th smallest: n - ceil(q * n).
    # The largest q keeping that >= beyond is (n - beyond) / n.
    return min(cap, (n - beyond) / n)


def tail(values):
    """(value, quantile) of the reported tail of values."""
    q = tail_quantile(len(values))
    if q is None:
        raise ValueError("%d samples support no tail percentile" % len(values))
    return percentile(values, q), q


def segment_tail(values, segments=None):
    """(value, quantile) of a run's tail that one hiccup cannot move:
    `values` in time order is cut into equal segments (five from 1000
    samples up, else three), each gets its own tail (the highest
    percentile <= p99 with ten samples beyond), and the median
    segment's tail is reported. A stall of the host during a minority
    of the segments then leaves the figure alone.
    """
    if segments is None:
        segments = 5 if len(values) >= 1000 else 3
    size = len(values) // segments
    if size <= TAIL_BEYOND:
        raise ValueError("%d samples support no segment tail" % len(values))
    tails = sorted(tail(values[i * size:(i + 1) * size])[0]
                   for i in range(segments))
    return tails[segments // 2], tail_quantile(size)


def due_latencies_ms(lag_us, total_us, accepted):
    """Due-to-done latency of each open-loop request, None where it was
    rejected: the generator's lag (sent - due) plus the server's
    submit-to-done."""
    return [(lag + total) / 1e3 if ok else None
            for lag, total, ok in zip(lag_us, total_us, accepted)]


def ok_ratio(accepted, correct, latency_ms, limit_ms):
    """Share of attempted requests that were accepted, answered
    correctly and met the latency limit. `latency_ms` is aligned with
    `accepted` (None where rejected)."""
    attempted = len(accepted)
    if attempted == 0:
        raise ValueError("ok_ratio of zero attempts")
    ok = sum(1 for acc, good, lat in zip(accepted, correct, latency_ms)
             if acc and good and lat is not None and lat <= limit_ms)
    return ok / attempted


def quartile_spread(values):
    """(q3 - q1) / median by statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def self_times(spans):
    """Map span id -> self time (duration minus the union of its direct
    children's intervals, each clipped to the parent)."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        covered, cursor = 0.0, lo
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_us"]):
            a, b = max(c["start_us"], cursor), min(c["end_us"], hi)
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (hi - lo) - covered
    return out


def coverage(spans):
    """Share of the roots' summed duration that their descendants'
    self time accounts for: sum(root - root self) / sum(root)."""
    selfs = self_times(spans)
    ids = {s["id"] for s in spans}
    roots = [s for s in spans if s["parent"] not in ids]
    whole = sum(s["end_us"] - s["start_us"] for s in roots)
    if whole <= 0:
        return None
    return sum(s["end_us"] - s["start_us"] - selfs[s["id"]] for s in roots) / whole


def chrome_trace(spans):
    """Chrome trace-event JSON (complete "X" events), one track per
    recording thread; the request id and parent ride in args."""
    events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": s["tid"],
               "ts": s["start_us"], "dur": s["end_us"] - s["start_us"],
               "args": {"request": s["request"], "id": s["id"],
                        "parent": s["parent"]}}
              for s in spans]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_chains(spans):
    """request id -> set of span names recorded for it."""
    chains = {}
    for s in spans:
        chains.setdefault(s["request"], set()).add(s["name"])
    return chains


BENCH_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
              "per_layer"}


def validate_benchmark_json(cfg):
    """List of problems with a BENCHMARK.json object (empty if valid)."""
    errs = []
    if set(cfg) != BENCH_KEYS:
        errs.append("keys must be exactly %s" % sorted(BENCH_KEYS))
        return errs
    cmd = cfg["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errs.append("command: 1..32 strings of <= 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        errs.append("command: no absolute or parent-relative paths")
    paths = cfg["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errs.append("paths: 1..16 entries")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.match(p)
                    or p.startswith("/") or ".." in p.split("/")):
                errs.append("paths: bad entry %r" % (p,))
    rs = cfg["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        errs.append("run_seconds: whole number 1..60")
    names = []

    def check_name(kind, item, keys):
        if not isinstance(item, dict) or set(item) != keys:
            errs.append("%s: keys must be %s" % (kind, sorted(keys)))
            return
        if not isinstance(item["name"], str) or not NAME_RE.match(item["name"]):
            errs.append("%s: bad name %r" % (kind, item["name"]))
        names.append(item["name"])

    wl = cfg["workloads"]
    if not isinstance(wl, list) or not 2 <= len(wl) <= 8:
        errs.append("workloads: 2..8 entries")
        wl = []
    for w in wl:
        check_name("workload", w, {"name", "why"})
        why = w.get("why") if isinstance(w, dict) else None
        if not isinstance(why, str) or "\n" in why or not 1 <= len(why) <= 200:
            errs.append("workload %r: why must be one line of <= 200 chars"
                        % (w,))
    for kind, keys, lo, hi in (
            ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
            ("per_layer", {"name", "unit", "better"}, 1, 128)):
        items = cfg[kind]
        if not isinstance(items, list) or not lo <= len(items) <= hi:
            errs.append("%s: %d..%d entries" % (kind, lo, hi))
            continue
        for m in items:
            check_name(kind, m, keys)
            if not isinstance(m, dict) or set(m) != keys:
                continue
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                errs.append("%s %s: bad unit %r" % (kind, m["name"], m["unit"]))
            if m["better"] not in ("lower", "higher"):
                errs.append("%s %s: better is lower|higher" % (kind, m["name"]))
            if kind == "end_to_end":
                b = m["bound"]
                if (not isinstance(b, (int, float)) or isinstance(b, bool)
                        or not 0 < b <= 0.25):
                    errs.append("%s %s: bound in (0, 0.25]" % (kind, m["name"]))
    e2e = {m.get("name"): m for m in cfg["end_to_end"] if isinstance(m, dict)}
    setup = e2e.get("setup_s")
    if not setup or setup.get("unit") != "s" or setup.get("better") != "lower":
        errs.append("end_to_end: needs setup_s in s, lower is better")
    if len(names) != len(set(names)):
        errs.append("names must be unique")
    return errs
