#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload engine_mix --seed 1 --seconds 20 --trace 0

The last line of standard output is the run's JSON result. Build output
goes to standard error. The build lands in $CARGO_TARGET_DIR, or in
.bench_build at the repository root when that is unset.

Repeated runs, one seed each, with each metric's median and quartiles:

    python3 perfbench/run.py repeat --workload engine_mix --runs 10 [--seconds 20]
        [--trace 0] [--first-seed 1]
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the release binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"run.py: build failed with code {done.returncode}", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(binary, args):
    """Runs the binary with `args`; returns (exit code, stdout text)."""
    work = os.path.join(target_dir(), "perfbench-work")
    try:
        done = subprocess.run(
            [binary, *args, "--work-dir", work],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=175,
        )
    except subprocess.TimeoutExpired:
        print("run.py: run timed out", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def take(argv, flag, default):
    if flag in argv:
        k = argv.index(flag)
        value = argv[k + 1]
        del argv[k:k + 2]
        return value
    return default


def table(title, values):
    """Prints each metric's median, quartiles and spread; returns them."""
    summary = {}
    print(f"{title}:")
    print(f"{'metric':36} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, (unit, vs) in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:36} {unit:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    return summary


def repeat(argv):
    workload = take(argv, "--workload", None)
    runs = int(take(argv, "--runs", "10"))
    seconds = take(argv, "--seconds", "20")
    trace = take(argv, "--trace", "0")
    first = int(take(argv, "--first-seed", "1"))
    if workload is None or argv:
        print(__doc__, file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        return 1
    values, shares, correct = {}, set(), True
    for seed in range(first, first + runs):
        code, out = run_once(binary, ["--workload", workload, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", trace])
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print(f"run.py: seed {seed} failed with code {code}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in sorted(result["metrics"].items())), file=sys.stderr)
    print(f"{workload}: {runs} runs, correct={correct}, failed shares={sorted(shares)}")
    summary = table("metrics", values)
    print(json.dumps({"workload": workload, "runs": runs, "correct": correct,
                      "failed_shares": sorted(shares), "metrics": summary}))
    return 0 if correct else 1


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["repeat"]:
        return repeat(argv[1:])
    binary = build()
    if binary is None:
        return 1
    code, out = run_once(binary, argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
