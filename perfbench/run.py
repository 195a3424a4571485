#!/usr/bin/env python3
"""Build and run the DUST perf benchmark from the repository root.

    python3 perfbench/run.py --workload fabric-steady --seed 1 --seconds 10 --trace 0

Builds perfbench (Release, only the libraries it links) under .bench_build/,
runs one workload and forwards its output; the last stdout line is the JSON
result. --record FILE also appends {"provenance", "info", "result"} as one
JSON line for compare.py. See perfbench/README.md for workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fabric-steady", "fleet-churn", "stream-loopback")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # kept out of tuning; a claimed gain must also hold here
RUN_LIMIT_S = 175.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "none"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no DUST sources under {ROOT / 'src'}")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def check_metric_set(result_line, trace):
    """Fail unless the result carries exactly the manifest's metrics of its
    kind (per_layer when traced, end_to_end otherwise), each in its unit."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in json.loads(result_line)["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"result does not match BENCHMARK.json: missing {missing}, "
             f"unlisted {extra}, wrong unit {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out to confirm claims)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append provenance + result as a JSON line")
    args = parser.parse_args()

    build()
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}.tsv")]

    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_LIMIT_S:.0f} s")
    if proc.returncode == 0:
        lines = proc.stdout.splitlines()
        if not lines:
            fail(f"{args.workload} printed no result")
        check_metric_set(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()

    if args.record and proc.returncode == 0:
        lines = proc.stdout.splitlines()
        provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines
                          if line.startswith("PROVENANCE "))
        info = next(json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("INFO "))
        provenance["wall_s"] = round(time.monotonic() - started, 3)
        with open(args.record, "a") as out:
            out.write(json.dumps({"provenance": provenance, "info": info,
                                  "result": json.loads(lines[-1])}) + "\n")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
