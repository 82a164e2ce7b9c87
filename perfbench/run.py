#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

The first form builds the moldsched library and the benchmark from the
checkout's sources (CMake, Release) and runs one workload: batch_wide
or serve_long. The benchmark's standard output passes through
unchanged, so its last line is the JSON result; build output goes to
standard error. A traced run (--trace 1) also writes its spans, one JSON
object per line, next to the build. The second form builds and runs the
benchmark's own tests.

The build lives in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench, relative to the checkout root).
"""
import fcntl
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
RUN_TIMEOUT_S = 175


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configures once, then builds `target`; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources not found under " + str(ROOT / "src"))
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(SOURCE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                        "--target", target],
                       check=True, stdout=sys.stderr)
    return out


def option(args, name):
    """Value of `name` given as `name value` or `name=value`, else None."""
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return None


def main(args):
    try:
        if args == ["--test"]:
            out = build("perfbench_tests")
            return subprocess.run([str(out / "perfbench_tests")],
                                  timeout=RUN_TIMEOUT_S).returncode
        out = build("perfbench")
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    command = [str(out / "perfbench")] + args
    if option(args, "--trace") == "1":
        name = "spans-%s-%s.jsonl" % (option(args, "--workload"),
                                       option(args, "--seed"))
        command.append("--trace-out=" + str(out / name))
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
