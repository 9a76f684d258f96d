#!/usr/bin/env python3
"""Benchmark of the passive NFS tracer (nfstrace) and its analyzer (nfsstats).

Run it from the root of a source checkout:

    python3 perfbench/run.py --workload campus-tcp-trace --seed 1 --seconds 10 --trace 0

It builds nfstrace, nfsstats and the in-process helper (perfbench/bench.ml)
with dune, has the helper generate the workload's input from the seed, then
runs the real binary one child at a time for --seconds and checks every
run's output against what the generator knows.  With --trace 0 the last line
of stdout holds the end-to-end metrics; with --trace 1 it holds the
per-layer rows of one traced in-process run.  The line before it tags the
result with the machine, the source tree and the input.  Workloads, metrics
and the layer map are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("campus-tcp-trace", "eecs-udp-lossy-trace", "campus-tbin-stats", "eecs-text-stats")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
TARGETS = ("bin/nfstrace.exe", "bin/nfsstats.exe", "perfbench/bench.exe")
# Sources the benchmark cannot run without; a checkout missing any of them
# makes it exit non-zero before doing anything else.
REQUIRED = ("dune-project", "bin/nfstrace.ml", "bin/nfsstats.ml", "lib", "perfbench/bench.ml")
MIN_RUNS = 3
# The reference kernel's time (bench.ml, [reference]) on the host the times
# are normalized to: about its median on the 2-core x86-64 container the
# benchmark was written on.  See "Host drift" in README.md.
REF_S = 0.3
SETUP_REFS = 3  # kernel runs right after set-up, to scale setup_s


class BenchError(Exception):
    """A failure that leaves nothing to report."""


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(root, BUILD_DIR, "cache"))
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR]
    done = subprocess.run(cmd + list(TARGETS), cwd=root, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        raise BenchError("build failed:\n" + done.stdout.decode(errors="replace")[-4000:])
    return {t.split("/")[-1][:-len(".exe")]: os.path.join(root, BUILD_DIR, "default", t)
            for t in TARGETS}


def helper(exe, *args):
    """Run one bench.exe command; its stdout is one JSON object."""
    done = subprocess.run([exe, *args], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if done.returncode != 0:
        raise BenchError(f"bench.exe {args[0]} failed:\n" + done.stderr.decode(errors="replace"))
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def run_child(exe, args, workdir):
    """Run the binary once; wall seconds and peak RSS in MB from wait4."""
    with open(os.path.join(workdir, "stdout"), "wb") as out, \
            open(os.path.join(workdir, "stderr"), "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen([exe, *args], cwd=workdir, stdin=subprocess.DEVNULL,
                                 stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return child.returncode, wall, usage.ru_maxrss / 1024.0


def source_digest(root):
    """Commit id when the checkout is a git repository, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if done.returncode == 0:
            return done.stdout.decode().strip()
    h = hashlib.md5()
    for top in ("dune-project", "dune", "bin", "lib", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-md5:" + h.hexdigest()


class Runs:
    """Checked runs of the real binary."""

    def __init__(self, exes, facts, workdir):
        self.exe = exes[facts["argv"][0]]
        self.args = facts["argv"][1:]
        self.helper = exes["bench"]
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.walls, self.refs, self.rss, self.delivered = [], [], [], []

    def once(self, timed=True):
        self.attempted += 1
        code, wall, rss = run_child(self.exe, self.args, self.workdir)
        verdict = helper(self.helper, "check", "--dir", self.workdir)
        if code != 0:
            verdict["ok"] = False
            verdict["problems"].append(f"exit code {code}")
        if not verdict["ok"]:
            self.failed += 1
            self.problems.extend(verdict["problems"])
        elif timed:
            self.walls.append(wall)
            self.refs.append(verdict["ref_s"])
            self.rss.append(rss)
            self.delivered.append(verdict["delivered"])

    def loop(self, seconds):
        self.once(timed=False)  # warm the page cache and the binary
        t0 = time.perf_counter()
        while len(self.walls) + self.failed < MIN_RUNS or time.perf_counter() - t0 < seconds:
            self.once()
            if self.failed > MIN_RUNS:
                break
        if not self.walls:
            raise BenchError("no run passed its check: " + "; ".join(self.problems[:5]))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply the workload's record count (the smoke tests use 0.02)")
    a = ap.parse_args()

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        raise BenchError("not a source checkout (missing " + ", ".join(missing) + ")")
    exes = build(root)
    workdir = os.path.join(root, WORK_DIR, a.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        facts = helper(exes["bench"], "setup", "--workload", a.workload, "--seed", str(a.seed),
                       "--scale", repr(a.scale), "--dir", workdir)
        setup_refs = [helper(exes["bench"], "ref")["ref_s"] for _ in range(SETUP_REFS)]
        runs = Runs(exes, facts, workdir)
        detail = {}
        if a.trace == 0:
            runs.loop(a.seconds)
            # Times are scaled to a host on which the reference kernel takes REF_S.
            wall = statistics.median(runs.walls) * REF_S / statistics.median(runs.refs)
            setup = statistics.median(facts["setup_s"]) * REF_S / statistics.median(setup_refs)
            metrics = {
                "rec_per_s": metric(facts["records"] / wall, "rec/s"),
                "peak_rss_mb": metric(statistics.median(runs.rss), "MB"),
                "delivered_share": metric(statistics.median(runs.delivered), "share"),
                "setup_s": metric(setup, "s"),
            }
        else:
            runs.loop(a.seconds / 2)
            traced = helper(exes["bench"], "traced", "--dir", workdir)
            runs.attempted += 1
            if not traced["ok"]:
                runs.failed += 1
                runs.problems.extend(traced["problems"])
            metrics = traced.pop("metrics")
            metrics["trace_overhead"] = metric(
                traced["wall_s"] / statistics.median(runs.walls) - 1, "share")
            detail = {"traced": traced}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = {
        "workload": a.workload, "seed": a.seed, "scale": a.scale, "trace": a.trace,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "ocaml": facts["ocaml"], "commit": source_digest(root),
        "input_bytes": facts["input_bytes"], "input_md5": facts["input_md5"],
        "records": facts["records"], "users": facts["users"],
        "argv": [os.path.relpath(runs.exe, root), *runs.args],
        "cwd": os.path.relpath(workdir, root),
    }
    print(json.dumps({"tag": tag, "ref_norm_s": REF_S,
                      "setup_s": facts["setup_s"], "setup_ref_s": setup_refs,
                      "wall_s": runs.walls, "ref_s": runs.refs, "rss_mb": runs.rss,
                      "problems": runs.problems, **detail}))
    correct = runs.failed == 0
    print(json.dumps({"correct": correct, "attempted": runs.attempted, "failed": runs.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
