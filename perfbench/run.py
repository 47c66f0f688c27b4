#!/usr/bin/env python3
"""Loopback end-to-end benchmark of `query_server --serve`.

Builds query_server and the benchmark (Release, in .bench_build/perfbench
under the repository root) and runs one workload:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs the timed mode (query_server as a child process) and prints
the end-to-end metrics; --trace 1 runs the traced mode (in-process server,
every layer timed) and prints the per-layer metrics. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --selftest   checker self-test (corrupted outputs)
  python3 perfbench/run.py --smoke      self-test, then every workload for
                                        one second in both modes
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["filter_fanout", "grouped_agg", "stream_join",
             "grouped_agg_sharded"]


class Interrupted(Exception):
    pass


def on_signal(signum, _frame):
    raise Interrupted(signum)


def run_group(cmd, log):
    """Runs `cmd` in its own process group; on any interruption the whole
    group (cmake, make, compilers) is killed and reaped before re-raising."""
    proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        return proc.wait()
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def build(targets):
    for need in ("CMakeLists.txt", "src", os.path.join("examples",
                                                       "query_server.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.stderr.write("perfbench: %s not found: run from a full "
                             "checkout of the repository\n" % need)
            sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                      "--target"] + targets)
        for cmd in steps:
            if run_group(cmd, log) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                sys.exit(1)


def main():
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, on_signal)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest or args.smoke:
            build(["perfbench_check_test", "perfbench_loadgen",
                   "perfbench_traced"])
            rc = subprocess.call([os.path.join(BUILD, "perfbench_check_test")])
            if rc != 0 or not args.smoke:
                return rc
            for trace in ("perfbench_loadgen", "perfbench_traced"):
                for w in WORKLOADS:
                    out = subprocess.run(
                        [os.path.join(BUILD, trace), "--workload", w,
                         "--seed", "1", "--seconds", "1"],
                        stdout=subprocess.PIPE, text=True)
                    last = out.stdout.strip().splitlines()[-1:] or ["(none)"]
                    print("%s %s: exit %d %s" % (trace, w, out.returncode,
                                                  last[0][:160]))
                    if out.returncode != 0 or '"correct": true' not in last[0]:
                        rc = 1
            return rc
        if args.workload is None:
            parser.error("--workload is required")
        binary = "perfbench_traced" if args.trace else "perfbench_loadgen"
        build([binary])
    except Interrupted as e:
        return 128 + e.args[0]
    # The benchmark binary replaces this process, so signals reach it
    # directly; it kills and reaps the server it starts.
    os.execv(os.path.join(BUILD, binary),
             [binary, "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)])


if __name__ == "__main__":
    sys.exit(main())
