#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload leader-put --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first run configures and builds the
server (dpaxos_cli) and the benchmark driver from source into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. The last line of standard output is the driver's JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
A failed correctness check, a failed build or missing sources exit
non-zero without printing a result.

--smoke runs every workload for one second, traced and untraced, and
checks that every metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["leader-put", "edge-mixed", "sim-sharded"]
# A run must finish within 180 s; the driver gets this long before it and
# every server it spawned are killed.
DRIVER_TIMEOUT_S = 170

_child = None


def _kill_child(*_):
    if _child is not None and _child.poll() is None:
        try:
            os.killpg(_child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _child.wait()
    sys.exit(1)


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once, then (re)build the two targets; return their paths."""
    for required in ("src/CMakeLists.txt", "tools/dpaxos_cli.cc",
                     "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("repository sources not found (missing %s)" % required, 2)
    out = os.path.join(build_dir(), "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "dpaxos_cli", "perfbench_driver"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (see %s)" % log_path)
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "dpaxos_tools", "dpaxos_cli"))


def run_driver(driver, server, workload, seed, seconds, trace):
    """Run one workload; return (exit code, stdout lines)."""
    global _child
    cmd = [driver, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--server=" + server,
           "--workdir=" + os.path.join(build_dir(), "run")]
    # Own process group: a timeout takes the spawned servers down too.
    _child = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              start_new_session=True, text=True)
    try:
        out, _ = _child.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        fail("%s did not finish in %d s" % (workload, DRIVER_TIMEOUT_S))
    code = _child.returncode
    _child = None
    return code, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def smoke(driver, server):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_driver(driver, server, workload, 1, 1, trace)
            result = parse_result(lines)
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result.get("correct"):
                problems.append("%s: exit %d, no result" % (label, code))
                continue
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (label, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: %s unit %s, want %s" % (
                        label, m["name"], got.get("unit"), m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s: undeclared %s" % (label,
                                                       sorted(extra)))
            print("smoke %-24s %d metrics, attempted %d" % (
                label, len(metrics), result["attempted"]))
    for p in problems:
        print("smoke FAIL " + p)
    print("smoke %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, _kill_child)
    signal.signal(signal.SIGINT, _kill_child)

    driver, server = build()
    if args.smoke:
        return smoke(driver, server)
    code, lines = run_driver(driver, server, args.workload, args.seed,
                             args.seconds, args.trace)
    result = parse_result(lines)
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if code != 0 or result is None:
        fail("%s failed (exit %d)" % (args.workload, code))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
