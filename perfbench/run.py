#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 10 --trace 0

The harness is the Go module in this directory; it imports the
repository's packages through a replace directive, so it is built from
the checkout's sources every time (Go's build cache makes rebuilds
cheap). Build products and the Go build cache live in the build
directory, $CARGO_TARGET_DIR if set and .bench_build otherwise, so
nothing is written outside the checkout. All arguments are passed to
the harness, whose last line of standard output is the result JSON.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(out, "home")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    exe = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
