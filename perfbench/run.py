#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload static-exact --seed 1 --seconds 10 --trace 0

Builds the driver (perfbench/CMakeLists.txt) from the checkout's sources,
generates the workload's inputs from --seed in a separate process, runs the
workload for --seconds, checks every output against its exact oracle and
prints the metrics: one "name = value unit" line each, then one JSON object
as the last line.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics and writes a Chrome trace-event file.  Exits nonzero when
any operation failed.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("static-exact", "static-sampled", "stream-insert", "serve-churn")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the driver; build output goes to
    stderr so stdout stays the metric report."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no library sources next to %s; run from a full checkout" % HERE)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j4",
                  "--target", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench_driver"


def drive(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s: %s" % (DRIVER_TIMEOUT_S, " ".join(cmd)))
    if proc.returncode:
        fail("driver failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    return proc.stdout


def end_to_end(workload, raw, latency):
    busy_s = raw["busy_s"]
    if workload == "serve-churn":
        # The open loop offers a fixed rate, so updates over the window
        # would read that rate whatever the server's speed.
        x = raw["extra"]
        busy_s = sum(stats.service_times(x["session"], x["sent_s"],
                                         x["visible_s"]))
    return {
        "setup_s": (statistics.median(raw["samples"]["setup"]), "s"),
        "edges_per_s": (raw["items"] / busy_s, "edges/s"),
        "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "latency_p90_ms": (stats.percentile(latency, 90) * 1e3, "ms"),
        "modeled_s": (raw["modeled_s"], "sim_s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw, latency, self_s):
    samples, r, x = raw["samples"], raw["report"], raw["extra"]
    med = lambda name: statistics.median(samples[name])
    recount_s = med("tc.recount")
    # A static count ingests its whole input as one batch.
    apply_s = med("tc.apply" if "tc.apply" in samples else "tc.add_edges")
    # SessionManager::open wraps make_engine.
    make = samples.get("engine.make", []) + samples.get("serve.open", [])
    batches = x.get("batches", 0)
    traced = [v for v, t in zip(latency, raw["unit_traced"]) if t]
    untraced = [v for v, t in zip(latency, raw["unit_traced"]) if not t]
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1) * 100
    return {
        "graph.read_s": (med("graph.read"), "s"),
        "graph.preprocess_s": (med("graph.preprocess"), "s"),
        "engine.make_s": (statistics.median(make), "s"),
        "tc.add_edges_s": (med("tc.add_edges"), "s"),
        "tc.apply_p50_ms": (apply_s * 1e3, "ms"),
        "tc.recount_p50_ms": (recount_s * 1e3, "ms"),
        "tc.sim_minstr_per_s": (r["kernel_instr"] / 1e6 / recount_s, "Minstr/s"),
        "tc.kernel_instr": (r["kernel_instr"], "count"),
        "tc.count_instr": (r["count_instr"], "count"),
        "tc.merge_isects": (r["merge_isects"], "count"),
        "tc.gallop_isects": (r["gallop_isects"], "count"),
        "tc.gallop_probes": (r["gallop_probes"], "count"),
        "tc.incremental_frac": (x["incremental_frac"], "ratio"),
        "tc.dirty_full_recounts": (x["dirty_full_recounts"], "count"),
        "pim.modeled_ingest_s": (r["modeled_ingest_s"], "sim_s"),
        "pim.modeled_count_s": (r["modeled_count_s"], "sim_s"),
        "pim.host_s": (r["host_s"], "s"),
        "pim.push_payload_mb": (r["push_payload_bytes"] / 2**20, "MB"),
        "pim.push_wire_mb": (r["push_wire_bytes"] / 2**20, "MB"),
        "pim.pad_ratio": (r["push_wire_bytes"] / r["push_payload_bytes"], "ratio"),
        "pim.pushes": (r["pushes"], "count"),
        "coloring.load_imbalance": (r["load_imbalance"], "ratio"),
        "coloring.replication": (r["edges_replicated"] / r["edges_kept"], "ratio"),
        "sketch.keep_ratio": (r["edges_kept"] / r["edges_streamed"], "ratio"),
        "sketch.overflow_units": (r["reservoir_overflows"], "count"),
        "sketch.sample_evictions": (r["sample_evictions"], "count"),
        "sketch.delete_misses": (r["delete_misses"], "count"),
        "sketch.error_rel": (x["error_rel"], "ratio"),
        "cpufast.count_s": (med("cpufast.count"), "s"),
        "serve.publishes_per_batch": (
            x["published_epochs"] / batches if batches else 0.0, "ratio"),
        "serve.queue_depth_max": (x.get("queue_depth_max", 0), "count"),
        "self.graph_s": (self_s.get("graph", 0.0), "s"),
        "self.engine_s": (self_s.get("engine", 0.0), "s"),
        "self.tc_s": (self_s.get("tc", 0.0), "s"),
        "self.cpufast_s": (self_s.get("cpufast", 0.0), "s"),
        "trace.overhead_pct": (overhead, "%"),
        "trace.spans": (len(raw["spans"]), "count"),
    }


def serve_only(raw, lateness):
    """serve-churn's serve-layer timings, which no other workload has."""
    submit_s, query_s = raw["extra"]["submit_s"], raw["samples"]["serve.query"]
    return {
        "serve.submit_wait_p90_ms": (stats.percentile(submit_s, 90) * 1e3, "ms"),
        "serve.query_p90_us": (stats.percentile(query_s, 90) * 1e6, "us"),
        "serve.gen_late_p90_ms": (stats.percentile(lateness, 90) * 1e3, "ms"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    driver = build(out_dir / "perfbench")
    inputs = out_dir / "inputs" / (
        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    common = ["--workload=" + args.workload, "--seed=%d" % args.seed,
              "--dir=" + str(inputs)]
    try:
        drive([str(driver), "gen"] + common)
        raw = json.loads(drive([str(driver), "run"] + common + [
            "--seconds=%g" % args.seconds, "--trace=%d" % args.trace]))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    failures = list(raw["failures"])
    comparisons, drifted = stats.drift(raw["det"])
    failures += drifted
    attempted = int(raw["attempted"]) + comparisons

    latency, lateness = raw["latency_s"], []
    if args.workload == "serve-churn":
        x = raw["extra"]
        latency, lateness, missing = stats.open_loop(
            x["due_s"], x["sent_s"], x["visible_s"])
        failures += ["batch never visible"] * missing

    details = {"latency_samples": (len(latency), "count"),
               "latency_highest_percentile": (
                   stats.highest_percentile(len(latency)) or 0, "pct")}
    if args.trace:
        self_s = stats.self_times(raw["spans"])
        metrics = per_layer(raw, latency, self_s)
        for layer, seconds in sorted(self_s.items()):
            if "self.%s_s" % layer not in metrics:
                details["self.%s_s" % layer] = (seconds, "s")
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / ("%s-seed%d.json" % (args.workload, args.seed))
        stats.chrome_trace(raw["spans"], trace_path)
        print("perfbench: trace written to %s" % trace_path)
    else:
        metrics = end_to_end(args.workload, raw, latency)
    if args.workload == "serve-churn":
        details.update(serve_only(raw, lateness))

    failures += ["%s is not finite" % name
                 for name, (value, _) in metrics.items() if not math.isfinite(value)]
    for name, (value, unit) in list(details.items()) + list(metrics.items()):
        print("perfbench: %s %s = %.6g %s" % (args.workload, name, value, unit))
    for f in failures:
        print("perfbench: FAILED " + f)

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
