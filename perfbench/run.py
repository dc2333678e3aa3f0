#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload node2vec --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --selftest                   # helper tests

Each workload runs in its own process. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench under the
repository root); a traced run (--trace 1) also writes its chrome trace to
<build>/traces/<workload>.json. The last line of stdout is the JSON result of
the workload; the exit code is non-zero when the build or any check fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["node2vec", "deepwalk_churn", "ppr_service"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def call(cmd):
    """Runs cmd with its output on stderr; on any exit of ours (SIGTERM
    included) the whole process group it started is killed first."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(target):
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if call(cmd) != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    if call(["cmake", "--build", out, "--target", target, "-j", jobs]) != 0:
        return None
    return os.path.join(out, target)


def run_workload(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, workload + ".json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s exceeded %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1, None
    finally:
        # Also reached when SIGTERM interrupts us: never leave the child behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return proc.returncode, (lines, result)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        if binary is None:
            print("perfbench: build failed", file=sys.stderr)
            return 2
        return call([binary])
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, output = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
        if output is None or output[1] is None:
            return code or 1
        print("\n".join(output[0]))
        return code

    # Every workload in its own process; one combined result line.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        rc, output = run_workload(binary, workload, args.seed, args.seconds, args.trace)
        if output is None or output[1] is None:
            return rc or 1
        lines, result = output
        print("\n".join(lines[:-1]))
        code = code or rc
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = metric
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
