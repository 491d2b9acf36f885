#!/usr/bin/env python3
"""Build gaserved and the perfbench load generator from source, then run
one benchmark workload.

    python3 perfbench/run.py --workload stream_small --seed 1 --seconds 10 --trace 0

Run from the repository root. Both programs are built in release mode
into $CARGO_TARGET_DIR (default `.bench_build`); run files go to
`<target dir>/perfbench-run`. The last stdout line is the result object
(see perfbench/README.md). Exits nonzero, printing no result, when the
build fails — for instance outside a full checkout.
"""

import os
import subprocess
import sys


def build(target_dir, manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    root = os.getcwd()
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    for manifest, extra in [
        ("Cargo.toml", ["-p", "ga-serve", "--bin", "gaserved"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ]:
        if not os.path.isfile(os.path.join(root, manifest)) or not build(
            target_dir, manifest, extra
        ):
            print(f"perfbench: cannot build {manifest}", file=sys.stderr)
            return 2
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--gaserved", os.path.join(release, "gaserved"),
        "--out-dir", os.path.join(target_dir, "perfbench-run"),
    ]
    # The benchmark's exit code and output pass straight through.
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
