#!/usr/bin/env python3
"""Build and run the control-plane benchmark.

Run from the repository root:

    python3 loopbench/run.py --workload <streaming|rebalance|paper> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `loopbench` package in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs it with the same arguments under an
address-space cap and a time limit, so a runaway run fails on its own
instead of exhausting the host.  The benchmark's standard output passes
through unchanged; its last line is the JSON result.  Exits with the
benchmark's exit code, or 1 when the build fails, the run is killed or it
overruns the limit.
"""

import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Address space the benchmark process may map.  The largest workload peaks
# near 60 MiB resident; the rest of the cap is headroom for thread stacks
# and allocator arenas.
MEMORY_CAP_BYTES = 1 << 30

# Seconds a run may take before it is killed.
TIME_LIMIT_S = 170


def cap_memory():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_BYTES if hard == resource.RLIM_INFINITY else min(hard, MEMORY_CAP_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("loopbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "loopbench")
    proc = subprocess.Popen([binary] + sys.argv[1:], preexec_fn=cap_memory)
    try:
        code = proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"loopbench: run exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 1
    if code < 0:
        print(f"loopbench: run killed by signal {-code}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
