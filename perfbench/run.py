#!/usr/bin/env python3
"""Launch benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload cold-severifast --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root. The first run builds the library and the
runner (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer table of a separate traced run. The
last line of standard output is one JSON object; the lines above it are
for people. The exit code is 0 when every launch passed the correctness
gate, 1 when one did not, and 2 when the benchmark could not build or
run at all (then no result is printed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing outside the build tree
import benchstats as bs  # noqa: E402

# name -> (unit, clock). "host" is wall clock or host resources as
# measured, "host@ref" host time scaled to the reference host's speed
# (benchstats.REF_MS), "virtual" the cost model, "count" neither.
END_TO_END = {
    "setup_s": ("s", "host"),
    "launch_p50_ms": ("ms", "host@ref"),
    "cpu_ms_per_launch": ("ms", "host@ref"),
    "peak_rss_mib": ("MiB", "host"),
    "sim_boot_ms": ("virtual_ms", "virtual"),
    "success_rate": ("ratio", "count"),
}
# Printed after the metrics but not reported as metrics: on the shared
# measuring host they moved between runs of one build by more than any
# bound a regression gate could use (perfbench/README.md).
PRINTED_ONLY = {
    "launch_tail_ms": ("ms", "host@ref"),
    "sustained_rps": ("1/s", "host@ref"),
}

PER_LAYER = {
    "workload.synth_s": "s",
    "workload.lz4_compress_calls": "count",
    "image.parse_ms": "ms",
    "vmm.stage_ms": "ms",
    "compress.lz4_decompress_ms": "ms/launch",
    "compress.lz4_decompress_mb_s": "MB/s",
    "crypto.xex_encrypt_ms": "ms/launch",
    "crypto.xex_decrypt_ms": "ms/launch",
    "crypto.xex_mb_s": "MB/s",
    "crypto.sha256_ms": "ms/launch",
    "crypto.sha256_mb_s": "MB/s",
    "crypto.measure_ms": "ms/launch",
    "psp.commands": "count/launch",
    "psp.update_data_ms": "ms/launch",
    "psp.update_data_bytes": "B/launch",
    "psp.premeasured_ms": "ms/launch",
    "psp.gate_wait_ms": "ms/launch",
    "psp.retries": "count",
    "memory.host_write_ms": "ms/launch",
    "memory.capture_snapshot_ms": "ms/launch",
    "memory.instantiate_snapshot_ms": "ms/launch",
    "memory.cow_pages_materialized": "count/launch",
    "verifier.boot_hashes_ms": "ms",
    "verifier.run_ms": "ms",
    "verifier.bytes_hashed": "B/launch",
    "verifier.bytes_copied": "B/launch",
    "verifier.pages_validated": "count/launch",
    "guest.bootstrap_ms": "ms",
    "attest.ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.capture_ms": "ms/launch",
    "cache.lookup_ms": "ms/launch",
    "cache.single_flight_waits": "count",
    "cache.bytes": "B",
    "core.launch_ms": "ms",
    "core.unattributed_ms": "ms",
    "core.admission_wait_ms": "ms",
    "core.queue_peak": "count",
    "service.submit_us": "us",
    "service.rejected": "count",
    "service.fairness": "ratio",
    "sim.phase.vmm_ms": "virtual_ms",
    "sim.phase.pre_encryption_ms": "virtual_ms",
    "sim.phase.firmware_ms": "virtual_ms",
    "sim.phase.boot_verification_ms": "virtual_ms",
    "sim.phase.bootstrap_loader_ms": "virtual_ms",
    "sim.phase.linux_boot_ms": "virtual_ms",
    "sim.phase.attestation_ms": "virtual_ms",
    "obs.tracing_overhead_pct": "%",
    "bench.gen_lag_ms": "ms",
}

# Set-up is measured in this many processes per run (the timed run's own
# set-up plus fresh set-up-only processes); the median is reported.
SETUP_SAMPLES = 3
BUILD_TIMEOUT_S = 850
# Everything after the build ends within this many seconds.
RUN_BUDGET_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; False on failure."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j4", "--target",
           "sevf_perfbench"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def run_binary(binary, sched_path, mode, seconds, out_path, deadline):
    """Run sevf_perfbench once; its JSON document, or None if it crashed.
    Raises subprocess.TimeoutExpired past `deadline` (time.monotonic)."""
    if os.path.exists(out_path):
        os.remove(out_path)
    proc = subprocess.run(
        [binary, "--schedule", sched_path, "--mode", mode,
         "--seconds", str(seconds), "--out", out_path],
        stdout=sys.stderr, stderr=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode not in (0, 1) or not os.path.exists(out_path):
        log("sevf_perfbench exited with %d" % proc.returncode)
        return None
    with open(out_path) as f:
        return json.load(f)


def end_to_end(doc, workload, setups):
    """The end-to-end metrics of one untraced run, plus notes. Host
    times are at reference speed (benchstats.REF_MS); the notes give the
    times as measured."""
    notes = {}
    if workload in bs.CLOSED:
        raw = doc["latency_ms"]
        n = len(raw)
        lat = bs.scaled_series(raw, doc["ref_ms"])
        p50 = statistics.median(lat)
        label, tail_v, beyond, count = bs.windowed_tail(
            lat, bs.windows(n, bs.TAIL_WINDOW))
        # One client: its completion rate is the sustained rate.
        rps = n / (sum(lat) / 1e3)
        cpu_ms = statistics.fmean(bs.scaled_series(
            doc["cpu_ms"], doc["ref_cpu_ms"], ref=bs.REF_CPU_MS))
        notes["sustained_rps"] = (
            "completion rate of the single client; %.4f as measured"
            % (n / (sum(raw) / 1e3)))
        notes["launch_p50_ms"] = (
            "n=%d; %.4f as measured; reference task %.3f ms; host steal "
            "%.2f s" % (n, statistics.median(raw),
                        statistics.median(doc["ref_ms"]),
                        doc["steal_ticks"] / 100))
        notes["cpu_ms_per_launch"] = "%.4f as measured" % (
            doc["cpu_s"] * 1e3 / n)
        mix = ["%s/%s/%d" % bs.CLOSED[workload]["key"]]
    else:
        steps = doc["steps"]
        nominal = [s for s in steps if s["rate"] == bs.NOMINAL_RPS]
        p50, (label, tail_v, beyond, count) = bs.nominal_latency(steps)
        n = sum(len(s["latency_ms"]) for s in steps)
        lat = [x for s in nominal for x in s["latency_ms"]]
        saturation = [s for s in steps if s["rate"] == bs.SATURATION]
        if not saturation:
            raise ValueError("the saturation step did not run")
        rps = bs.saturated_rps(saturation[0])
        ref_cpu = [x for s in steps for x in s["ref_cpu_ms"]]
        cpu_ms = (doc["cpu_s"] * 1e3 / max(1, n)
                  * bs.REF_CPU_MS / statistics.median(ref_cpu))
        ladder = [s for s in steps if s["rate"] in bs.LADDER_RPS]
        verdicts = ", ".join(
            "%g:%s" % (rate, "ok" if ok else "FAIL")
            for rate, ok in sorted(bs.rate_verdicts(ladder).items()))
        notes["sustained_rps"] = (
            "%d always outstanding, %.1f as measured; rate ladder (not "
            "a metric) %s with limit %g ms on the tail: %g rps passed"
            % (bs.SATURATION_OUTSTANDING,
               len(saturation[0]["latency_ms"]) / saturation[0]["elapsed_s"],
               verdicts, bs.LATENCY_LIMIT_MS, bs.ladder_rps(ladder)))
        stolen = sum(s["steal_ticks"][-1] - s["steal_ticks"][0]
                     for s in nominal)
        notes["launch_p50_ms"] = (
            "nominal step %g rps, n=%d; %.4f as measured; %d of %d "
            "windows at or under their chunk's median host steal (%.2f s "
            "stolen in the step)"
            % (bs.NOMINAL_RPS, len(lat), statistics.median(lat), count,
               sum(len(bs.windows(len(s["latency_ms"]), bs.TAIL_WINDOW))
                   for s in nominal), stolen / 100))
        notes["cpu_ms_per_launch"] = "%.4f as measured" % (
            doc["cpu_s"] * 1e3 / max(1, n))
        mix = ["%s/%s/%d" % k for k in bs.WARM_MIX]
    notes["launch_tail_ms"] = "%s, %d samples beyond, n=%d" % (
        label, beyond, len(lat))
    if count > 1:
        notes["launch_tail_ms"] = (
            "%s per %d-launch window (%d beyond), median of %d windows"
            % (label, bs.TAIL_WINDOW, beyond, count))
    notes["setup_s"] = "median of %s" % ", ".join("%.3f" % s for s in setups)
    attempted = max(1, int(doc["attempted"]))
    completed = int(doc["completed"])
    notes["success_rate"] = "error_rate %.4f (%d of %d failed or rejected)" % (
        (attempted - completed) / attempted, attempted - completed, attempted)
    metrics = {
        "setup_s": statistics.median(setups),
        "launch_p50_ms": p50,
        "launch_tail_ms": tail_v,
        "sustained_rps": rps,
        "cpu_ms_per_launch": cpu_ms,
        "peak_rss_mib": doc["peak_rss_mib"],
        "sim_boot_ms": bs.sim_boot_ms(doc["boots"], mix),
        "success_rate": completed / attempted,
    }
    return metrics, notes


def describe_host(host):
    parts = ["nproc %d" % host["nproc"], host["cpu_model"],
             "sha-ni %s" % ("yes" if host["sha_ni"] else "no"),
             "aes-ni %s" % ("yes" if host["aes_ni"] else "no"),
             host["compiler"], host["build_type"]]
    if "spin_speedup" in host:
        parts.append("spin speed-up 1/2/4 threads = " + "/".join(
            "%.2f" % host["spin_speedup"][k] for k in ("1", "2", "4")))
    return ", ".join(parts)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=bs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        ok = build(build_dir)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        ok = False
    if not ok:
        log("perfbench: build failed; no result")
        return 2
    binary = os.path.join(build_dir, "sevf_perfbench")
    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    sched_path = os.path.join(runs, tag + ".schedule")
    with open(sched_path, "w") as f:
        f.write(bs.schedule(args.workload, args.seed, args.seconds,
                            trace=bool(args.trace)))

    out_path = os.path.join(runs, tag + ".json")
    mode = "trace" if args.trace else "run"
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        doc = run_binary(binary, sched_path, mode, args.seconds, out_path,
                         deadline)
        setups = []
        if doc is not None and not args.trace:
            setups.append(doc["setup_s"])
            for i in range(SETUP_SAMPLES - 1):
                extra = run_binary(binary, sched_path, "setup", args.seconds,
                                   out_path + ".setup%d" % i, deadline)
                if extra is None:
                    doc = None
                    break
                setups.append(extra["setup_s"])
    except (OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: run failed: %s" % e)
        doc = None
    if doc is None:
        log("perfbench: no result")
        return 2

    correct = bool(doc["correct"])
    print("perfbench %s seed %d %s" % (
        args.workload, args.seed,
        "(traced run: per-layer table)" if args.trace else
        "(untraced run: end-to-end metrics)"))
    print("  host: " + describe_host(doc["host"]))
    print("  correctness: %s; measurement digest %s" % (
        "ok" if correct else "FAILED", doc["digest"]))
    for err in doc["errors"]:
        print("    " + err)

    if args.trace:
        values = doc["layers"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, m in metrics.items():
            print("  %-34s %14.4f %s" % (name, m["value"], m["unit"]))
    else:
        try:
            values, notes = end_to_end(doc, args.workload, setups)
        except ValueError as e:
            print("    " + str(e))
            correct = False
            values = {k: 0.0 for k in list(END_TO_END) + list(PRINTED_ONLY)}
            notes = {}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
        for name, (unit, clock) in END_TO_END.items():
            print("  %-20s %14.4f %-10s [%s] %s" % (
                name, values[name], unit, clock, notes.get(name, "")))
        print("  not metrics:")
        for name, (unit, clock) in PRINTED_ONLY.items():
            print("  %-20s %14.4f %-10s [%s] %s" % (
                name, values[name], unit, clock, notes.get(name, "")))

    attempted = max(1, int(doc["attempted"]))
    failed = attempted - int(doc["completed"])
    if not correct:
        failed = max(failed, 1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
