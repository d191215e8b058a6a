#!/usr/bin/env python3
"""End-to-end benchmark of the bichrome campaign stack.

    python3 e2e_bench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Builds the `bichrome` binary and the benchmark crate from source
(into $CARGO_TARGET_DIR, default .bench_build), writes the workload's
results-store fixture in a process of its own, then runs the workload
(on one CPU for those in ONE_CPU) and passes its report through. The
last line of standard output is the result object: {"correct",
"attempted", "failed", "metrics"}; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones (see
BENCHMARK.json). The exit code is non-zero when the build, a check or
an operation failed.

--smoke shrinks every size, for the self-check in test_bench.py.
"""

import argparse
import hashlib
import os
import signal
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURE_RECORDS = 100_000
SMOKE_FIXTURE_RECORDS = 2_000
# Everything, build included, must end well inside three minutes
# once built; the first build in a checkout may take much longer.
DEADLINE_S = 170
BUILD_TIMEOUT_S = 850
# Workloads measured on one CPU, which every process they start
# inherits. A shared host short of cores steals far more from a guest
# that keeps all its vCPUs busy. Alternating five pinned and five free
# runs of each on a 2-vCPU VM of a shared host: paper-grid wall spread
# (IQR/median) 13% pinned at 1-3% host steal against 33% free at
# 9-26% steal; daemon-remote job p50 15% against 27%. giant-serial is
# serial but for the intra-trial budget it is meant to get from the
# whole machine, and spread less free (10% against 15%).
ONE_CPU = {"paper-grid", "daemon-remote"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    """Builds the program and the benchmark; returns the two binaries."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "cli"))):
        fail(f"{ROOT} holds no bichrome workspace to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "bichrome-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return (os.path.join(release, "bichrome"),
            os.path.join(release, "bichrome-e2e-bench"))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "e2e_bench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".lock", ".py")))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:16]


def run_group(cmd, timeout):
    """Runs `cmd` in its own process group, streaming its stdout
    through; on timeout the whole group (daemon and workers included)
    is killed and reaped. Returns the exit code and the last line."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    last = ""
    deadline = time.monotonic() + timeout
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            last = line.strip() or last
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(cmd, timeout)
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd[:2])}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, last


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=("0", "1"), required=True)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()

    started = time.monotonic()
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bichrome, bench = build(target_dir)
    built = time.monotonic()
    if a.workload in ONE_CPU:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"{a.workload}-{a.seed}-{os.getpid()}")
    traces = os.path.join(work_root, "traces")
    os.makedirs(traces, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    records = SMOKE_FIXTURE_RECORDS if a.smoke else FIXTURE_RECORDS
    smoke = ["--smoke"] if a.smoke else []
    try:
        fixture = os.path.join(work, "fixture")
        code, _ = run_group([bench, "fixture", "--out", fixture, "--seed", str(a.seed),
                             "--records", str(records)], DEADLINE_S)
        if code != 0:
            fail("writing the store fixture failed")
        remaining = DEADLINE_S - (time.monotonic() - built)
        cmd = [bench, "run", "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", a.trace,
               "--fixture", fixture, "--records", str(records),
               "--work", work, "--bichrome", bichrome, "--source", source_id(),
               "--trace-out", os.path.join(traces, f"{a.workload}-seed{a.seed}.json"),
               *smoke]
        code, last = run_group(cmd, remaining)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not last.startswith('{"correct":'):
        fail(f"the benchmark printed no result (exit {code})")
    print(f"run.py: build {built - started:.1f} s, total {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
