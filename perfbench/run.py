#!/usr/bin/env python3
"""The charmx benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the charmx libraries, cxrun and the perfbench program from this
checkout into .bench_build/ (optimised, once; later runs only re-check
the build), then runs one workload. --trace 0 prints the end-to-end
metrics; --trace 1 prints the per-layer metrics of the traced run. The
last stdout line is the JSON result. Records and span logs go to
.bench_out/. See perfbench/README.md.

Extra flags: --smoke (tiny sizes, for perfbench/smoke_test.py),
--corrupt-expected (every output check must fail), --build-dir <dir>.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("stencil-coarse", "stencil-fine", "pool-map", "stencil-cxrun")
# Whole-invocation limit: a workload measures for --seconds, or up to
# twice that while the host is busy with other guests, plus warm-ups,
# references and (traced) the layer probes, which take under a minute;
# this is only hit by a hung run. At --seconds 15 it is 152.5 s.
TIMEOUT_BASE_S = 100
TIMEOUT_PER_S = 3.5


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build perfbench and cxrun (both incremental)."""
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        rc = subprocess.call(
            ["cmake", "-S", str(BENCH), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if rc != 0:
            die("cmake configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench", "cxrun"], stdout=log, stderr=log)
    if rc != 0:
        die("build failed", 1)


def source_digest():
    """sha256 over the program sources (paths and contents of src/)."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt-expected", action="store_true")
    ap.add_argument("--build-dir", default=str(ROOT / ".bench_build"))
    a = ap.parse_args()
    if a.seed < 0 or not a.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no charmx sources next to {BENCH.name}/ (expected src/)")

    build_dir = Path(a.build_dir).resolve()
    build(build_dir)
    exe = build_dir / "perfbench"
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace,
           "--self", str(exe), "--cxrun", str(build_dir / "cxrun"),
           "--out-dir", str(ROOT / ".bench_out"),
           "--commit", git_commit(), "--source-digest", source_digest()]
    if a.smoke:
        cmd.append("--smoke")
    if a.corrupt_expected:
        cmd.append("--corrupt-expected")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    timeout = TIMEOUT_BASE_S + TIMEOUT_PER_S * a.seconds
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{a.workload} did not finish within {timeout:g} s", 1)


if __name__ == "__main__":
    sys.exit(main())
