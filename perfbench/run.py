#!/usr/bin/env python3
"""Build the ArkFS benchmark from source, then run one workload on one CPU.

Usage, from the repository root:

    python3 perfbench/run.py --workload <meta_shared|archive_stream|sim_zipf> \
        --seed <n> --seconds <s> --trace <0|1>

The build honours CARGO_TARGET_DIR (default: perfbench/target). The run is
pinned to one CPU, the highest-numbered one the process may use: the TCP
workloads hand every request between a client thread and a server thread,
and on a small host that handoff is far steadier when both share a core
than when the scheduler moves them between cores.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "arkfs-perfbench")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
