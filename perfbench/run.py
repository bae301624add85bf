#!/usr/bin/env python3
"""Build the Threads benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the binary all go under
.bench_build/ in the checkout, so the run reads and writes nothing outside
it. The last line of standard output is the benchmark's JSON result; any
build failure exits non-zero without printing one.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(OUT, "perfbench")


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOTMPDIR": os.path.join(OUT, "tmp"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-buildvcs=false",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    try:
        done = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                              stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no Threads module at the checkout root", file=sys.stderr)
        return 2
    if not build():
        return 1
    sys.stdout.flush()
    os.execv(BINARY, [BINARY, "--spans-dir", os.path.join(OUT, "spans")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
