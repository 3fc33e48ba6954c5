#!/usr/bin/env python3
"""MosquitoNet benchmark runner.

Builds the simulator and the round binary from this checkout, then measures
one workload for a fixed time and prints the result as the last line of
standard output:

    python3 perfbench/run.py --workload tunnel_roam --seed 1 --seconds 50 --trace 0

A run is a sequence of rounds. Each round is a fresh process that sets up,
warms up and runs a fixed amount of simulated work (never cut short by the
clock), and rounds repeat until --seconds have passed. ops_per_norm_cpu_s is
the median over the rounds of each round's throughput divided by the speed
of a reference kernel timed in between its work; set-up time, normalized by
kernel batches just before and after it, and peak RSS are medians over the
rounds; sim-time metrics and layer counts are exact and
must agree between every round of a run (their digest is printed).

With --trace 1 the run alternates untraced and traced rounds and reports
the per-layer metrics; with --trace 0 it reports the end-to-end metrics.

    python3 perfbench/run.py --steadiness 10 --workload tunnel_roam --seconds 50

runs ten runs on seeds 1..10 and prints each end-to-end metric's median,
quartiles and quartile spread. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("tunnel_roam", "fleet_register", "scenario_sweep")
ROUND_TIMEOUT_S = 120

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the round binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources (src/) next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "msn_perfbench")


def contract_metrics(kind):
    """Metric names BENCHMARK.json lists under `kind`; empty when absent."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"] for m in json.load(f)[kind]}
    except (OSError, ValueError, KeyError):
        return set()


def host_snapshot():
    """Steal ticks (all CPUs) and the 1-minute load average."""
    steal = 0
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        steal = int(fields[8]) if len(fields) > 8 else 0
    except OSError:
        pass
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = 0.0
    return steal, load


def run_round(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("round exited with %d: %s" % (proc.returncode, proc.stderr[-500:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(r):
    """Exact digest of a round's sim-time metrics and layer counts."""
    blob = json.dumps({"sim": r["sim"], "counts": r["counts"]}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def per_op(counts, name, ops):
    return counts.get(name, 0.0) / ops if ops else 0.0


# Reference-kernel events that make one normalized CPU-second: roughly what
# the kernel runs in one CPU-second on the 4-vCPU x86-64 VM the benchmark was
# tuned on.
REF_EVENTS_PER_NORM_S = 5e6


def raw_rate(r):
    """A round's ops per CPU-second of its workload."""
    return r["ops_measured"] / r["host"]["work_cpu_s"]


def ref_rate(r):
    """A round's reference-kernel events per CPU-second."""
    return r["host"]["ref_events"] / r["host"]["ref_cpu_s"]


def norm_rate(r):
    """A round's ops per normalized CPU-second (see README "Noise")."""
    return raw_rate(r) * REF_EVENTS_PER_NORM_S / ref_rate(r)


def norm_setup_s(r):
    """A round's set-up time in normalized CPU seconds."""
    h = r["host"]
    return h["setup_s"] * h["setup_ref_events"] / h["setup_ref_cpu_s"] / REF_EVENTS_PER_NORM_S


def ops_per_norm_cpu_s(rounds):
    """Median over the rounds of ops per normalized CPU-second.

    On a shared host the CPU itself runs faster or slower from process to
    process and from minute to minute, by up to 1.5x. The reference kernel
    the round interleaves with its workload slows down with it, so dividing
    by its speed removes most of that.
    """
    return median([norm_rate(r) for r in rounds])


def end_to_end(rounds):
    first = rounds[0]["sim"]
    return {
        "ops_per_norm_cpu_s": (ops_per_norm_cpu_s(rounds), "1/s"),
        "setup_s": (median([norm_setup_s(r) for r in rounds]), "s"),
        "peak_rss_mb": (median([r["host"]["peak_rss_mb"] for r in rounds]), "MB"),
        "handoff_ms_p50": (first["handoff_ms_p50"], "ms"),
        "handoff_ms_p90": (first["handoff_ms_p90"], "ms"),
        "reg_ms_p50": (first["reg_ms_p50"], "ms"),
        "reg_ms_p90": (first["reg_ms_p90"], "ms"),
    }


def per_layer(plain, traced):
    """Per-layer metrics from the traced rounds' counts and ladders."""
    r = traced[0]
    c, s, ops = r["counts"], r["sim"], float(r["ops"])

    def timed(name):
        """A ladder or set-up span: median over the traced rounds."""
        return median([t["host"].get(name, 0.0) for t in traced])

    hits, misses = c.get("node.flow_cache_hits", 0.0), c.get("node.flow_cache_misses", 0.0)
    lane, heap = c.get("sim.lane_pushes", 0.0), c.get("sim.heap_pushes", 0.0)
    recycled = c.get("net.arena_recycled", 0.0)
    fresh = c.get("net.arena_node_allocs", 0.0)
    handoffs = c.get("handoffs", 0.0)
    mh_sends = c.get("mip.mh_sends", c.get("mip.reg_sends", 0.0))
    reg_accepts = c.get("mip.reg_accepts", 0.0)
    m = {
        "sim.events_per_op": (per_op(c, "sim.events", ops), "count"),
        "sim.heap_share": (heap / (heap + lane) if heap + lane else 0.0, "ratio"),
        "sim.ns_per_event": (timed("sim.ns_per_event"), "ns"),
        "sim.pending_max": (c.get("sim.pending_max", 0.0), "count"),
        "link.frames_per_op": (per_op(c, "link.frames", ops), "count"),
        "link.ns_per_frame": (timed("link.ns_per_frame"), "ns"),
        "link.drops_per_op.random_loss": (per_op(c, "link.drops.random_loss", ops), "count"),
        "link.drops_per_op.fault_injected":
            (per_op(c, "link.drops.fault_injected", ops), "count"),
        "link.drops_per_op.unmatched": (per_op(c, "link.drops.unmatched", ops), "count"),
        "net.allocs_per_op": (per_op(c, "net.allocations", ops), "count"),
        "net.copies_per_op": (per_op(c, "net.copies", ops), "count"),
        "net.pool_hit_ratio": (recycled / (recycled + fresh) if recycled + fresh else 0.0,
                               "ratio"),
        "net.ns_per_alloc": (timed("net.ns_per_alloc"), "ns"),
        "net.ns_per_checksum": (timed("net.ns_per_checksum"), "ns"),
        "node.lookups_per_op": ((hits + misses) / ops if ops else 0.0, "count"),
        "node.flow_cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                      "ratio"),
        "node.flow_cache_invalidations_per_op":
            (per_op(c, "node.flow_cache_invalidations", ops), "count"),
        "node.ns_per_lookup_hit": (timed("node.ns_per_lookup_hit"), "ns"),
        "node.ns_per_lookup_miss": (timed("node.ns_per_lookup_miss"), "ns"),
        "node.ns_per_lpm_fib4": (timed("node.ns_per_lpm_fib4"), "ns"),
        "node.ns_per_lpm_fib1k": (timed("node.ns_per_lpm_fib1k"), "ns"),
        "node.ns_per_lpm_fib100k": (timed("node.ns_per_lpm_fib100k"), "ns"),
        "mip.encaps_per_op": (per_op(c, "mip.encaps", ops), "count"),
        "mip.ns_per_encap": (timed("mip.ns_per_encap"), "ns"),
        "mip.handoff_pre_ms_p50": (s.get("mip.handoff_pre_ms_p50", 0.0), "ms"),
        "mip.handoff_reqrep_ms_p50": (s.get("mip.handoff_reqrep_ms_p50", 0.0), "ms"),
        "mip.handoff_post_ms_p50": (s.get("mip.handoff_post_ms_p50", 0.0), "ms"),
        "mip.mh_sends_per_handoff": (mh_sends / handoffs if handoffs else 0.0, "count"),
        "mip.reg_sends_per_accept":
            (c.get("mip.reg_sends", 0.0) / reg_accepts if reg_accepts else 0.0, "ratio"),
        "mip.admission_denied_per_op": (per_op(c, "mip.admission_denied", ops), "count"),
        "mip.ha_processing_ms_p99": (s.get("mip.ha_processing_ms_p99", 0.0), "ms"),
        "mip.ha_queue_depth_max": (c.get("mip.ha_queue_depth_max", 0.0), "count"),
        "mip.ns_per_reg_parse": (timed("mip.ns_per_reg_parse"), "ns"),
        "mip.reg_ms_p99": (s.get("mip.reg_ms_p99", 0.0), "ms"),
        "mip.overload_reg_ms_p99": (s.get("mip.overload_reg_ms_p99", 0.0), "ms"),
        "topo.testbed_build_ms": (timed("topo.testbed_build_ms"), "ms"),
        "check.gen_ms_per_seed": (timed("check.gen_ms_per_seed"), "ms"),
        "check.oracle_checks_per_op": (per_op(c, "check.oracle_checks", ops), "count"),
        "fault.frames_judged_per_op": (per_op(c, "fault.frames_judged", ops), "count"),
        "mobility.ticks_per_op": (per_op(c, "mobility.ticks", ops), "count"),
        "repl.msgs_per_op": (per_op(c, "repl.msgs", ops), "count"),
        "telemetry.metric_count": (c.get("telemetry.metric_count", 0.0), "count"),
    }
    # The ROADMAP's reconciliation: calls per op times ns per call, summed
    # over the ladders, against the CPU one op costs untraced. Ladders
    # overlap at the event engine (a frame's ladder includes its events), so
    # this is indicative, not a partition.
    # The ladders are timed in raw CPU nanoseconds, so they are set against
    # the raw CPU an untraced op costs.
    cpu_ns_per_op = 1e9 / median([raw_rate(r) for r in plain])
    parts = (m["sim.events_per_op"][0] * m["sim.ns_per_event"][0]
             + m["link.frames_per_op"][0] * (m["link.ns_per_frame"][0]
                                              + m["net.ns_per_checksum"][0])
             + m["net.allocs_per_op"][0] * m["net.ns_per_alloc"][0]
             + hits / ops * m["node.ns_per_lookup_hit"][0]
             + misses / ops * m["node.ns_per_lookup_miss"][0]
             + m["mip.encaps_per_op"][0] * m["mip.ns_per_encap"][0]
             + per_op(c, "mip.reg_sends", ops) * m["mip.ns_per_reg_parse"][0])
    m["trace.attributed_share"] = (parts / cpu_ns_per_op if cpu_ns_per_op else 0.0, "ratio")
    m["trace.overhead_share"] = (ops_per_norm_cpu_s(plain) / ops_per_norm_cpu_s(traced) - 1.0,
                                 "ratio")
    return m


def measure(binary, workload, seed, seconds, trace):
    """One run: rounds until `seconds` pass. Returns (result dict, report lines)."""
    steal0, load0 = host_snapshot()
    t0 = time.monotonic()
    plain, traced, errors = [], [], []
    while time.monotonic() - t0 < seconds or not plain or (trace and not traced):
        want_trace = trace and len(traced) < len(plain)
        try:
            r = run_round(binary, workload, seed, want_trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
            errors.append(str(e))
            break
        (traced if want_trace else plain).append(r)
        if not r["correct"]:
            errors.extend(r["errors"])
            break
    steal1, load1 = host_snapshot()
    wall = time.monotonic() - t0

    rounds = plain + traced
    digests = sorted({digest(r) for r in rounds})
    if len(digests) > 1:
        errors.append("rounds disagree on sim-time metrics or layer counts: %s" % digests)
    lines = ["seed %d (held-out validation seed: %d)" % (seed, seed + 1000)]
    lines.append("digest %s over %d rounds (%d traced)" % (
        ",".join(digests), len(rounds), len(traced)))
    cpu = sum(r["host"]["work_cpu_s"] + r["host"]["ref_cpu_s"] for r in rounds)
    wall_work = sum(r["host"]["work_wall_s"] for r in rounds)
    lines.append("host cpu/wall %.3f steal_ticks %d load %.2f->%.2f run_wall_s %.1f" % (
        cpu / wall_work if wall_work else 0.0, steal1 - steal0, load0, load1, wall))
    for label, rate in (("ops_per_norm_cpu_s", norm_rate), ("ops_per_cpu_s (raw)", raw_rate),
                        ("reference events per cpu_s", ref_rate)):
        per_round = sorted(rate(r) for r in plain)
        if per_round:
            q1, q2, q3 = (statistics.quantiles(per_round, n=4, method="inclusive")
                          if len(per_round) > 1 else per_round * 3)
            lines.append("%s per round: min %.0f q1 %.0f median %.0f q3 %.0f max %.0f" % (
                label, per_round[0], q1, q2, q3, per_round[-1]))
    for e in errors:
        lines.append("error: %s" % e)

    correct = not errors and bool(plain)
    attempted = sum(r["attempted"] for r in rounds) or 1
    failed = sum(r["failed"] for r in rounds)
    metrics = {}
    if plain and (not trace or traced):
        values = per_layer(plain, traced) if trace else end_to_end(plain)
        listed = contract_metrics("per_layer" if trace else "end_to_end")
        extra = {k: v for k, (v, _) in values.items() if listed and k not in listed}
        if extra:
            lines.append("metrics not listed in BENCHMARK.json: %s" % json.dumps(extra))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()
                   if not listed or k in listed}
    return ({"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}, lines)


def steadiness(binary, args):
    """Runs --steadiness runs on consecutive seeds; prints quartile spreads."""
    values = {}
    for k in range(args.steadiness):
        seed = args.seed + k
        result, lines = measure(binary, args.workload, seed, args.seconds, bool(args.trace))
        for line in lines:
            print(line)
        print(json.dumps(result), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%-36s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3", "iqr/med"))
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print("%-36s %14.6g %14.6g %14.6g %8.4f" % (name, q1, med, q3, spread))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0,
                   help="run this many runs on consecutive seeds and print spreads")
    args = p.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if args.steadiness:
        steadiness(binary, args)
        return 0
    result, lines = measure(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
