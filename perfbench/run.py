#!/usr/bin/env python3
"""Build the TUT-Profile benchmark program from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload tutmac_flow --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The program (perfbench/tutbench.ml) is built with dune inside the
repository's own _build directory, with dune's shared cache off, and run
as one serial process.  Its last stdout line is the JSON result:
{"correct", "attempted", "failed", "metrics"}.  Traced runs (--trace 1)
also write their spans to perfbench/out/.  Exits non-zero, printing no
result, when there is nothing to build.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "tutbench.exe")
WORKLOADS = ["tutmac_flow", "tutmac_faults", "wlan_knee", "mc_env2"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    return code


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    dune = shutil.which("dune")
    if dune is None:
        return "dune not found on PATH"
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            return "no %s in %s: nothing to build" % (need, ROOT)
    out = subprocess.run(
        [dune, "build", "--root", ROOT, "--cache=disabled", "--display=quiet",
         "./perfbench/tutbench.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stdout)
        return "build failed"
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)  # BENCHMARK.json run_seconds
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        return fail("--workload is required")

    err = build()
    if err:
        return fail(err)

    if args.self_test:
        cmd = [EXE, "--self-test", "--dir", HERE,
               "--benchmark", os.path.join(ROOT, "BENCHMARK.json")]
    else:
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", HERE, "--nproc", str(os.cpu_count()),
               "--commit", commit()]
        if args.trace == 1:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--spans-out", os.path.join(
                out_dir, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail("tutbench exceeded %d s" % RUN_TIMEOUT_S, 3)


if __name__ == "__main__":
    sys.exit(main())
