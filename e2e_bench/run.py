#!/usr/bin/env python3
"""End-to-end benchmark of record for CloudFog (see README.md).

    python3 e2e_bench/run.py --workload fog-daily|fog-arrivals|paper-10k|all
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
    python3 e2e_bench/run.py --selftest

Run from the root of a source checkout. Builds the runner (runner.cpp plus
the library under src/) into .bench_build/e2e_bench, runs the workload in a
fresh process, checks its outputs, and prints a metric table followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.
"""
import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2e_bench"
RUNNER = BUILD / "e2e_runner"
WORKLOADS = ["fog-daily", "fog-arrivals", "paper-10k"]
RUNNER_TIMEOUT_S = 170
OPTIMISED_BUILDS = {"Release", "RelWithDebInfo"}
# Workloads whose population is the §4.1 daily-session model.
DAILY = {"fog-daily", "paper-10k"}

# name -> unit, for every metric the benchmark reports.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_subcycle_ms": "ms",
    "offpeak_subcycle_ms": "ms",
    "peak_rss_mb": "MiB",
    "response_latency_ms": "ms",
    "continuity": "ratio",
    "cloud_egress_mbps": "Mbps",
    "ok_run_ratio": "ratio",
}
PER_LAYER = {
    "testbed.build_ms": "ms",
    "system.ctor_ms": "ms",
    "cycle.begin_ms": "ms",
    "cycle.end_ms": "ms",
    "subcycle.ms": "ms",
    "span_coverage": "ratio",
    "population.ms": "ms",
    "fog.discovery.ms": "ms",
    "fog.discovery.calls": "count",
    "fog.discovery.us_per_call": "us",
    "fog.probe.ms": "ms",
    "social.cross_server.ms": "ms",
    "qos.rate_adapt.ms": "ms",
    "qos.subcycle.self_ms": "ms",
    "provisioning.self_ms": "ms",
    "provision.deploy.ms": "ms",
    "provision.forecast.ms": "ms",
    "fog.probes_sent": "count",
    "fog.probe_yield": "ratio",
    "fog.claim_yield": "ratio",
    "fog.cloud_fallback_ratio": "ratio",
    "system.player_joins": "count",
    "system.migrations": "count",
    "rate.switches": "count",
    "reputation.ratings": "count",
    "provision.windows": "count",
    "cloud.lookup_us": "us",
    "social.partition_s": "s",
    "mem.bytes_per_player": "B",
    "obs.trace_overhead_pct": "%",
}
# Benchmark span name -> per-layer metric.
SPAN_METRICS = {
    "testbed.build": "testbed.build_ms",
    "system.ctor": "system.ctor_ms",
    "cycle.begin": "cycle.begin_ms",
    "cycle.end": "cycle.end_ms",
    "subcycle": "subcycle.ms",
}
MIN_SPAN_COVERAGE = 0.95

sys.path.insert(0, str(HERE))
import spans as spanlib  # noqa: E402


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not produce a result (build or runner failure)."""


def build():
    """Configures and brings the runner up to date (about a second when
    nothing changed). Build output goes to stderr."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "e2e_runner", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, smoke):
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    span_path = None
    if trace:
        span_path = BUILD / "spans" / f"{workload}-seed{seed}{'-smoke' if smoke else ''}.jsonl"
        span_path.parent.mkdir(exist_ok=True)
        cmd += ["--spans", str(span_path)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"runner timed out after {RUNNER_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"runner exited with {proc.returncode}")
    return json.loads(proc.stdout), span_path


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_context(raw, seed, trace, smoke):
    """Where the numbers came from. Numbers from a non-optimised build or a
    1-CPU context are never numbers of record: they are flagged."""
    nproc = len(os.sched_getaffinity(0))
    unfit = []
    if raw["build_type"] not in OPTIMISED_BUILDS:
        unfit.append(f'build type {raw["build_type"]!r} is not optimised')
    if nproc < 2:
        unfit.append(f"{nproc} CPU available; fog-daily runs 2 QoS threads")
    if smoke:
        unfit.append("smoke size")
    return {
        "workload": raw["workload"],
        "config": raw["config"],
        "seed": seed,
        "trace": int(trace),
        "nproc": nproc,
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "cxx_flags": raw["cxx_flags"].strip(),
        "git_sha": git_sha(),
        "of_record": not unfit,
        "unfit": unfit,
    }


# ---- Output checks --------------------------------------------------------


def check_reps(workload, raw):
    """Per-rep list of failed checks. A rep fails when any output differs
    from the first rep (RunMetrics digest over every arm, and the counter
    digest among traced reps — which covers timed vs traced and 2 vs 1 QoS
    threads), or when it leaves a paper envelope."""
    reps = raw["reps"]
    completed = [r for r in reps if "error" not in r]
    first = completed[0] if completed else None
    first_traced = next((r for r in completed if r["traced"]), None)
    fails = []
    for r in reps:
        f = []
        if "error" in r:
            fails.append([f'threw: {r["error"]}'])
            continue
        if r["digest"] != first["digest"]:
            f.append(f'RunMetrics digest {r["digest"]} != {first["digest"]} '
                     f'(traced={r["traced"]}, threads={r["qos_threads"]})')
        if r["traced"] and r["counter_digest"] != first_traced["counter_digest"]:
            f.append(f'counter digest {r["counter_digest"]} != {first_traced["counter_digest"]}')
        for key in ("response_latency_ms", "continuity", "cloud_egress_mbps"):
            if not finite(r[key]):
                f.append(f"{key} is not finite")
        if workload == "paper-10k":
            arms = {a["label"]: a for a in r["arms"]}
            cloud, fog = arms["Cloud"], arms["CloudFog/A"]
            if not fog["response_latency_ms"] < cloud["response_latency_ms"]:
                f.append("Fig 7 ordering: CloudFog/A latency not below Cloud")
            if not fog["continuity"] > cloud["continuity"]:
                f.append("Fig 8 ordering: CloudFog/A continuity not above Cloud")
        if workload == "fog-daily" and r["fog_served_fraction"] < 0.9:
            f.append(f'fog-served fraction {r["fog_served_fraction"]:.4f} < 0.9')
        if workload in DAILY:
            if r["online_after"] != 0:
                f.append(f'{r["online_after"]} sessions still open after the schedule '
                         "(joins != leaves)")
            c = r.get("counters")
            if c and c["system.player_joins"] != c["system.player_leaves"]:
                f.append(f'joins {c["system.player_joins"]} != leaves {c["system.player_leaves"]}')
        fails.append(f)
    return fails


def check_digest_history(config, digest):
    """Across runs: every run of a workload config (which includes the seed)
    in this build tree must reproduce the first one's outputs."""
    key = hashlib.sha256(config.encode()).hexdigest()[:16]
    path = BUILD / "digests" / f"{key}.txt"
    path.parent.mkdir(exist_ok=True)
    if path.exists():
        seen = path.read_text().strip()
        if seen != digest:
            return [f"RunMetrics digest {digest} differs from an earlier run's {seen}"]
        return []
    path.write_text(digest + "\n")
    return []


# ---- Metrics --------------------------------------------------------------


def end_to_end(raw, ok_ratio):
    timed = [r for r in raw["reps"] if not r["traced"]]
    first = timed[0]
    peak = [x for r in timed for x in r["peak_subcycle_ms"]]
    offpeak = [x for r in timed for x in r["offpeak_subcycle_ms"]]
    values = {
        "setup_s": median([r["setup_s"] for r in timed]),
        "run_s": median([r["run_s"] for r in timed]),
        "peak_subcycle_ms": median(peak),
        "offpeak_subcycle_ms": median(offpeak),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
        "response_latency_ms": first["response_latency_ms"],
        "continuity": first["continuity"],
        "cloud_egress_mbps": first["cloud_egress_mbps"],
        "ok_run_ratio": ok_ratio,
    }
    samples = {
        "setup_s": len(timed), "run_s": len(timed),
        "peak_subcycle_ms": len(peak), "offpeak_subcycle_ms": len(offpeak),
    }
    return values, samples


def per_layer(raw, span_path):
    reps = raw["reps"]
    untraced = [r for r in reps if not r["traced"]]
    # Timing samples: traced reps at the workload's own thread count (the
    # fog-daily 1-thread determinism rep is excluded).
    threads = untraced[0]["qos_threads"]
    traced = [r for r in reps if r["traced"] and r["qos_threads"] == threads]
    spans = spanlib.load(span_path)
    runs = spanlib.per_run(spans)
    span_runs = [runs[r["run"]] for r in traced]
    v = {}
    for span_name, metric in SPAN_METRICS.items():
        v[metric] = median([s["layers"].get(span_name, 0) / 1e6 for s in span_runs])
    v["span_coverage"] = min(s["coverage"] for s in span_runs)

    def phase(name, field="ms"):
        return median([r["phases"][name][field] for r in traced])

    def phase_diff(outer, *inner):
        return median([r["phases"][outer]["ms"] - sum(r["phases"][i]["ms"] for i in inner)
                       for r in traced])

    v["population.ms"] = phase("population")
    v["fog.discovery.ms"] = phase("fog.discovery")
    v["fog.discovery.calls"] = phase("fog.discovery", "calls")
    v["fog.discovery.us_per_call"] = median(
        [1e3 * r["phases"]["fog.discovery"]["ms"] / max(1, r["phases"]["fog.discovery"]["calls"])
         for r in traced])
    v["fog.probe.ms"] = phase("fog.probe")
    v["social.cross_server.ms"] = phase("social.cross_server")
    v["qos.rate_adapt.ms"] = phase("qos.rate_adapt")
    v["qos.subcycle.self_ms"] = phase_diff("qos.subcycle", "qos.rate_adapt")
    v["provisioning.self_ms"] = phase_diff("provisioning", "provision.deploy",
                                           "provision.forecast")
    v["provision.deploy.ms"] = phase("provision.deploy")
    v["provision.forecast.ms"] = phase("provision.forecast")

    c = traced[0]["counters"]

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    v["fog.probes_sent"] = c["fog.probes_sent"]
    v["fog.probe_yield"] = ratio("fog.probes_qualified", "fog.probes_sent")
    v["fog.claim_yield"] = ratio("fog.claims_granted", "fog.capacity_asks")
    v["fog.cloud_fallback_ratio"] = ratio("fog.cloud_fallbacks", "system.player_joins")
    v["system.player_joins"] = c["system.player_joins"]
    v["system.migrations"] = c["system.migrations"]
    v["rate.switches"] = c["rate.switch_up"] + c["rate.switch_down"]
    v["reputation.ratings"] = c["reputation.ratings"]
    v["provision.windows"] = c["provision.windows"]

    probe = next(r for r in reps if "lookup_us" in r)
    v["cloud.lookup_us"] = probe["lookup_us"]
    v["social.partition_s"] = probe["partition_s"]
    v["mem.bytes_per_player"] = ((raw["peak_rss_kib"] - raw["rss_start_kib"]) * 1024.0
                                 / untraced[0]["players"])
    v["obs.trace_overhead_pct"] = 100.0 * (median([r["run_s"] for r in traced])
                                           / median([r["run_s"] for r in untraced]) - 1.0)
    return v, spans


# ---- One benchmark run ------------------------------------------------------


def bench(workload, seed, seconds, trace, smoke):
    """Runs one workload in a fresh runner process; returns the result line
    (as a dict) after printing the context and a metric table."""
    raw, span_path = run_binary(workload, seed, seconds, trace, smoke)
    context = run_context(raw, seed, trace, smoke)
    fails = check_reps(workload, raw)
    # Metrics come from the reps that completed; a rep that threw is only
    # counted as failed.
    raw["reps"] = [r for r in raw["reps"] if "error" not in r]
    if not any(not r["traced"] for r in raw["reps"]) or (
            trace and not any("lookup_us" in r for r in raw["reps"])):
        for f in fails:
            for msg in f:
                log(f"CHECK FAILED: {msg}")
        raise BenchError("no rep of a needed kind completed")
    fails[0] += check_digest_history(raw["config"], raw["reps"][0]["digest"])
    spans = None
    if trace:
        values, spans = per_layer(raw, span_path)
        units = PER_LAYER
        # Span structure and coverage checks apply to the whole traced run.
        span_fail = spanlib.child_sum_violations(spans)
        if values["span_coverage"] < MIN_SPAN_COVERAGE:
            span_fail.append(f'span_coverage {values["span_coverage"]:.4f} < {MIN_SPAN_COVERAGE}')
        fails[-1] += span_fail
    attempted = len(fails)
    failed = sum(1 for f in fails if f)
    if not trace:
        values, samples = end_to_end(raw, 1.0 - failed / attempted)
        units = END_TO_END
    for i, f in enumerate(fails):
        for msg in f:
            log(f"CHECK FAILED (rep {i}): {msg}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = failed == 0 and all(finite(m["value"]) for m in metrics.values())

    print("context: " + json.dumps(context, sort_keys=True))
    if not context["of_record"]:
        log("warning: not numbers of record: " + "; ".join(context["unfit"]))
    print(f'{workload} (seed {seed}, trace {int(trace)}): {attempted} reps, {failed} failed, '
          f"failed_run_ratio {failed / attempted:.4f}")
    for name, m in metrics.items():
        note = f"  (median of {samples[name]})" if not trace and name in samples else ""
        value = f'{m["value"]:>18.6f}' if finite(m["value"]) else f'{m["value"]!s:>18}'
        print(f'  {name:<28}{value} {m["unit"]}{note}')
    if spans is not None:
        print(spanlib.format_tree(spans))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = BUILD / "results" / f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({"context": context, "result": result,
                                  "samples": None if trace else samples}, indent=1) + "\n")
    return result


# ---- Self-test --------------------------------------------------------------


def selftest(seed):
    """Every workload at smoke size on a held-out seed, untraced and traced:
    every metric present, finite and with its unit, outputs checked, span
    tree consistent and span_coverage at the gate."""
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = bench(workload, seed, 2, trace, smoke=True)
            want = PER_LAYER if trace else END_TO_END
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{workload} trace={int(trace)}: metrics {sorted(set(want) ^ set(got))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m["unit"] != unit or not finite(m["value"]):
                    problems.append(f"{workload} trace={int(trace)}: {name} = {m}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: output checks failed")
            if trace and got["span_coverage"]["value"] < MIN_SPAN_COVERAGE:
                problems.append(f"{workload}: span_coverage below {MIN_SPAN_COVERAGE}")
    for p in problems:
        log("SELFTEST FAILED: " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs (self-test size)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload or --selftest is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    # A terminated benchmark stops its runner too: the exception unwinds
    # through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    try:
        build()
        if args.selftest:
            return selftest(seed=2)
        if args.workload == "all":
            results = {w: bench(w, args.seed, args.seconds, args.trace == 1, args.smoke)
                       for w in WORKLOADS}
            print(json.dumps(results))
            return 0
        result = bench(args.workload, args.seed, args.seconds, args.trace == 1, args.smoke)
    except BenchError as e:
        log(f"e2e_bench: {e}")
        return 1
    log(f"e2e_bench: done in {time.monotonic() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
