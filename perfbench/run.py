#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (the libraries under src/ plus the benchmark runner) into
$CARGO_TARGET_DIR, default .bench_build; later calls rebuild
incrementally. Build output goes to stderr; stdout carries the runner's
output, whose last line is the result JSON.

--self-test runs every workload with one output corrupted and exits 0
only if each workload's check rejects it.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def child_env():
    """Keeps compiler and runner temporaries inside the build directory."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return {**os.environ, "TMPDIR": str(tmp)}


def build():
    out = build_dir() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *generator],
                       stdout=sys.stderr, env=child_env(), check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   stdout=sys.stderr, env=child_env(), check=True)
    return out / "perfbench"


def code_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, check=True)
        return "git:" + sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in (HERE.parent / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(HERE.parent)).encode())
            digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(binary, args, extra=()):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(build_dir() / "work"),
           "--commit", code_identity(), *extra]
    return subprocess.run(cmd, capture_output=True, text=True,
                          env=child_env(), timeout=RUN_TIMEOUT_S)


def self_test(binary):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        args = argparse.Namespace(workload=workload, seed=1, seconds=1, trace=0)
        proc = run_binary(binary, args, ["--corrupt"])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        rejected = proc.returncode != 0 and result.get("correct") is False
        reasons = [l for l in lines if l.startswith("# check:")]
        print(f"{workload}: corrupted output "
              f"{'rejected' if rejected else 'NOT rejected'} "
              f"(exit {proc.returncode}) {reasons[:1]}")
        ok = ok and rejected
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    if not args.workload:
        parser.error("--workload is required")

    try:
        proc = run_binary(binary, args)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: runner printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    names = list(result.get("metrics", {}))
    if names != expected_metrics(args.trace):
        print(f"perfbench: metrics {names} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
