#!/usr/bin/env python3
"""Build and run the live service benchmark.

usage: python3 livebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree of this repository. It builds
livebench/livebench.exe with dune into .bench_build, prints a run
fingerprint, runs one benchmark run with its files under .bench_runs,
and passes the runner's output through; the last line is the result
JSON. The workloads and metrics are described in BENCHMARK.json and
livebench/METRICS.md.

Exit codes: 0 a correct run; 1 a failed run (check, crash or timeout);
2 bad arguments or no source tree to build; 3 refused environment.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("write_sat", "write_durable", "read_lease", "leader_crash")
BUILD_DIR = ".bench_build"
RUNS_DIR = ".bench_runs"
EXE = os.path.join(BUILD_DIR, "default", "livebench", "livebench.exe")
TMP_DIR = os.path.join(BUILD_DIR, "tmp")  # compiler temporaries stay in the tree
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 170  # a run, excluding the build, must end within 180 s
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def say(msg):
    print(msg, flush=True)


def die(msg, code):
    print("run.py: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    """Build the runner from source; fails where there is no source tree."""
    for required in ("dune-project", os.path.join("lib", "service", "service.mli")):
        if not os.path.exists(required):
            die("no %s here: run from a source tree of the repository" % required, 2)
    if shutil.which("dune") is None:
        die("dune is not on PATH", 2)
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--cache=disabled", "--profile", "release", "--display", "quiet",
        "./livebench/livebench.exe",
    ]
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = os.path.abspath(TMP_DIR)
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    if out.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(out.stdout)
        die("build failed", 1)


def fs_type(path):
    """File-system type of the mount holding [path], from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1].replace("\\040", " ")
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def command_output(cmd):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=20)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def fingerprint(runs_dir):
    return {
        "nproc": os.cpu_count(),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"])
        or command_output(["ocamlopt", "-version"]) or "unknown",
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "wal_fs": fs_type(runs_dir),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1", 2)

    os.chdir(ROOT)
    build()
    started = time.monotonic()

    os.makedirs(RUNS_DIR, exist_ok=True)
    fp = fingerprint(RUNS_DIR)
    say("fingerprint: " + json.dumps(fp, sort_keys=True))
    if args.workload == "write_durable" and fp["wal_fs"] in ("tmpfs", "ramfs"):
        die("write_durable refuses a WAL on %s, where fsync is free" % fp["wal_fs"], 3)

    # All node threads share one OCaml runtime lock, so the cluster can
    # use one CPU at a time; pinning it to one CPU keeps lock hand-offs
    # between CPUs and other processes' scheduling out of the figures.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    say("pinned to cpu %d" % cpu)

    run_dir = os.path.join(RUNS_DIR, "%s-%d" % (args.workload, os.getpid()))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", run_dir,
           "--cpu", str(cpu)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(*_):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    lines = []
    try:
        try:
            out, _ = proc.communicate(timeout=max(1, RUN_LIMIT_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            die("run exceeded %d s" % RUN_LIMIT_S, 1)
        lines = out.splitlines()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass

    for line in lines[:-1]:
        say(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        if lines:
            say(lines[-1])
        die("runner exited %d without a result" % proc.returncode, 1)
    if proc.returncode != 0 or result["correct"] is not True:
        say("run failed: " + json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}))
        die("runner exited %d: the run failed its checks" % proc.returncode, 1)
    say(json.dumps(result))


if __name__ == "__main__":
    main()
