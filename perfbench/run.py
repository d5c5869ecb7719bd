#!/usr/bin/env python3
"""The repository benchmark: cold fault campaigns, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sw8_campaign --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload rtos7_serial --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

The script builds the cfsmdiag library and perfbench/driver.cpp from source
into .bench_build/perfbench (a no-op when up to date), runs the driver on
the workload named in perfbench/workloads.json, applies the correctness
gate and prints, as its last stdout line, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics.  The exit code is 0 when the gate
passes and 1 when it does not; 2 means the benchmark could not run at all
(no library sources, build failure, unknown workload), and then no result
line is printed.

Each workload's inputs are fixed by its generator parameters, so --seed
is accepted and does not change them.

Correctness gate: every planned fault has an entry; no entry errored, timed
out, came back inconclusive_* or no_consistent_hypothesis; every detected
entry is sound; the deterministic campaign_metrics counters and the entry
digest equal those recorded in perfbench/workloads.json (and repeat across
repetitions); and in a traced run the jobs-4 digest and counters equal the
serial pass's.  Known limit:
`sound` is scored with the engine's own capped equivalence check, so a
capped search that wrongly claims equivalence is not caught here.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and failed)."""


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def driver_args(cfg):
    args = []
    for key, value in cfg["args"].items():
        args += ["--" + key.replace("_", "-"), str(value)]
    return args


def run_driver(cfg, seconds, trace, trace_out=None, doctor=None):
    cmd = [DRIVER] + driver_args(cfg) + [
        "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if doctor is not None:
        cmd += ["--doctor-entry", str(doctor)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"driver exceeded {DRIVER_TIMEOUT_S} s") from e
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"driver exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"unreadable driver output: {e}") from e


def gate(cfg, out, expected):
    """Failures of one driver result: its own, plus the recorded-digest,
    recorded-counter and metric-completeness checks."""
    failures = list(out["failures"])
    if cfg.get("faults") and out["faults"] != cfg["faults"]:
        failures.append(f"{out['faults']} faults planned, the workload "
                        f"records {cfg['faults']}")
    recorded = cfg.get("digest")
    if recorded and out["digest"] != recorded:
        failures.append(
            f"entry digest {out['digest']} differs from the recorded "
            f"{recorded}: campaign entries are no longer byte-identical")
    for key, want in cfg.get("counters", {}).items():
        got = out["counters"].get(key)
        if got != want:
            failures.append(f"counter {key} is {got}, the workload records "
                            f"{want} (a repetition was not cold, or the "
                            f"library's work changed)")
    for m in expected:
        got = out["metrics"].get(m["name"])
        if got is None:
            failures.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            failures.append(f"metric {m['name']} has unit {got['unit']}, "
                            f"expected {m['unit']}")
    return failures


def expected_metrics(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def report(name, out, failures):
    print(f"workload {name}: {out['faults']} faults, {out['detected']} "
          f"detected, {out['reps']} repetition(s), digest {out['digest']}")
    if "latency_samples" in out:
        per_rep = ", ".join(f"{x:.1f}" for x in out["faults_per_s_per_rep"])
        print(f"  faults/s per repetition: {per_rep}; latency samples: "
              f"{out['latency_samples']}; set-up samples: "
              f"{out['setup_samples']}; failed_share {out['failed_share']}")
    for key, m in out["metrics"].items():
        print(f"  {key} = {m['value']} {m['unit']}")
    for row in out.get("slowest_faults", []):
        print(f"  slow: {row['diagnose_s']:.6f} s  {row['fault']}")
    print("  counters: " + json.dumps(out["counters"]))
    for f in failures:
        print(f"  FAIL: {f}")


def run_benchmark(args, bench, config):
    cfg = config["workloads"].get(args.workload)
    if cfg is None:
        raise BenchError(f"unknown workload {args.workload}")
    build()
    trace_out = None
    if args.trace:
        trace_out = os.path.join(
            BUILD, f"trace-{args.workload}-seed{args.seed}.jsonl")
    out = run_driver(cfg, args.seconds, args.trace, trace_out)
    failures = gate(cfg, out, expected_metrics(bench, args.trace))
    report(args.workload, out, failures)
    if trace_out:
        print(f"  spans: {out['spans']} written to {trace_out}")
    result = {"correct": not failures, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": out["metrics"]}
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def self_test(bench, config):
    """Tiny configurations: every metric of BENCHMARK.json is printed with
    its unit, and the gate trips on a doctored entry and on a counter that
    differs from the recorded one."""
    build()
    problems = []
    for name, cfg in config["self_test"].items():
        for trace in (0, 1):
            out = run_driver(cfg, 0.5, trace)
            failures = gate(cfg, out, expected_metrics(bench, trace))
            report(f"{name} (trace {trace})", out, failures)
            problems += [f"{name} trace {trace}: {f}" for f in failures]
            off_by_one = dict(cfg, counters=dict(
                cfg["counters"], replays=cfg["counters"]["replays"] + 1))
            if not any("counter replays" in f for f in
                       gate(off_by_one, out, expected_metrics(bench, trace))):
                problems.append(f"{name} trace {trace}: a changed counter "
                                f"did not trip the gate")
            doctored = run_driver(cfg, 0.5, trace, doctor=0)
            tripped = gate(cfg, doctored, expected_metrics(bench, trace))
            wanted = ["detected but unsound", "differs from"]
            for w in wanted:
                if not any(w in f for f in tripped):
                    problems.append(f"{name} trace {trace}: doctored entry "
                                    f"did not trip the gate ({w!r})")
    for p in problems:
        print(f"self-test FAIL: {p}")
    print("self-test: " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        config = load_json(os.path.join(HERE, "workloads.json"))
        if args.self_test:
            return self_test(bench, config)
        if not args.workload:
            raise BenchError("--workload is required")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        return run_benchmark(args, bench, config)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
