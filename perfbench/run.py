#!/usr/bin/env python3
"""Build and run perfbench, the repository benchmark, from a source checkout.

    python3 perfbench/run.py --workload <serve_light|net_overload|rp2_eval> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It configures and builds the benchmark
binary (perfbench/CMakeLists.txt, Release) into .bench_build/perfbench, then
runs it with the same arguments. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. BLURNET_* environment knobs
are removed before the run: the program under test gets only the inputs the
benchmark generates from --seed. Traced runs write their Chrome trace-event
JSON to .bench_build/traces/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """Content hash of everything the binary is built from, prefixed by the
    git commit when the checkout is a git work tree."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *ROOT.glob("src/**/*"), *HERE.glob("*")]
    for path in sorted(p for p in files if p.is_file()):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    rev = "tree-" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = f"git-{git.stdout.strip()} {rev}"
    return rev


def build(env):
    log = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", "-Wno-dev", *generator]
        if subprocess.run(configure, stdout=log, stderr=log, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=log, stderr=log, env=env).returncode != 0:
        fail("build failed")
    return BUILD_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_light", "net_overload", "rp2_eval"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a blurnet source checkout (no CMakeLists.txt or src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    env = {k: v for k, v in os.environ.items() if not k.startswith("BLURNET_")}
    binary = build(env)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--rev", source_rev(),
               "--trace-out", str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        completed = subprocess.run(command, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
