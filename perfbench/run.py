#!/usr/bin/env python3
"""Build and run the open-loop flash-crowd benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hotkey_mix --seed 1 --seconds 58 --trace 0

The OCaml benchmark (perfbench/flashcrowd.ml) is built with dune from the
checkout's own sources, then run with the same arguments.  Its last stdout
line is the JSON result; its exit code is passed through.  Without the
project sources next to this directory the script exits 2 and prints no
result.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "flashcrowd.exe")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no project sources here (dune-project, lib/); run from the repo root",
              file=sys.stderr)
        return 2

    # Keep every build artefact inside the checkout: no shared dune cache,
    # no search above the working directory for another project root.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/flashcrowd.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    sys.stdout.flush()
    bench = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
