#!/usr/bin/env python3
"""End-to-end campaign benchmark: build it, set up a run, measure a workload.

Builds the benchmark (perfbench/, a cargo package of its own that links the
workspace crates by path), gives the run a fresh working directory, fills
the warm phase-database store in a separate untimed process when the
workload needs one, then runs the measurement. The last line of stdout is
the measurement's JSON result.

    python3 perfbench/run.py --workload paper-warm --seed 2020 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-warm", "cold-build", "dynamic-resume"]
WARM = {"paper-warm", "dynamic-resume"}
# A measurement stops starting passes after 120 s; this is the hard stop.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def rustflags():
    """The repository's `build.rustflags`, plus 32-byte branch alignment on x86.

    Without the alignment, where the linker happens to place a hot loop
    decides its speed: two builds of the same source from different
    directories parsed the phase-db artifact in 4.8 s and 7.7 s. Aligning
    branches away from 32-byte boundaries (the JCC-erratum mitigation)
    brought both to about 4.7 s. Outputs are unchanged.
    """
    flags = []
    config = os.path.join(ROOT, ".cargo", "config.toml")
    if os.path.isfile(config):
        with open(config, "rb") as f:
            flags = list(tomllib.load(f).get("build", {}).get("rustflags", []))
    if platform.machine() in ("x86_64", "AMD64"):
        flags += ["-C", "llvm-args=-x86-branches-within-32B-boundaries"]
    return flags


def build():
    """Build the benchmark binary and return its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no workspace crates under {ROOT}; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Explicit flags replace `.cargo/config.toml`'s, so rustflags() adds them back.
    env = dict(os.environ, CARGO_TARGET_DIR=target,
               CARGO_ENCODED_RUSTFLAGS="\x1f".join(rustflags()))
    cmd = ["cargo", "build", "--release", "--quiet", "--offline",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    # Cargo output goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("cargo build failed")
    return os.path.join(ROOT, target, "release", "triad-perfbench")


def run_workload(binary, workload, seed, seconds, trace, record):
    """Run one workload in a fresh working directory; return its stdout lines."""
    work = os.path.join(ROOT, ".perfbench-work")
    run_dir = os.path.join(work, f"run-{os.getpid()}-{workload}")
    out_dir = os.path.join(work, "out")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--seed", str(seed), "--run-dir", run_dir, "--out-dir", out_dir]
    try:
        if workload in WARM:
            subprocess.run([binary, "populate"] + common, cwd=ROOT, check=True,
                           stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        cmd = [binary, "run", "--workload", workload, "--seconds", str(seconds),
               "--trace", str(trace)] + common
        if record:
            cmd += ["--record", os.path.abspath(record)]
        done = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.SubprocessError as e:
        fail(f"{workload}: {e}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload}: no result line")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=2020)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="append each result, stamped with the host "
                    "context, to this JSON Lines file")
    args = ap.parse_args()

    binary = build()
    if args.workload != "all":
        for line in run_workload(binary, args.workload, args.seed, args.seconds,
                                 args.trace, args.record):
            print(line, flush=True)
        return

    ok = True
    for workload in WORKLOADS:
        lines = run_workload(binary, workload, args.seed, args.seconds,
                             args.trace, args.record)
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"== {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for line in lines[:-1]:
            print("   " + line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
