#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 10 --trace 0

Run from the repository root.  The benchmark is built in release mode into
$CARGO_TARGET_DIR (default perfbench/target) and then replaces this
process.  The benchmark pins each timed repetition to one CPU, taking the
allowed CPUs in turn, so every engine call runs single-threaded, including
the ones `reproduce` makes with the default thread count, which follows the
CPU affinity.  The last line of standard output is the result.

glibc's malloc is told to keep the memory the program frees (one arena, no
mmap'd chunks, no trimming), so later repetitions reuse the pages the first
one touched.  With the defaults, every repetition of `large_n` and
`resilience` maps and unmaps hundreds of MB; on a virtual machine that
reports free memory back to its host, touching those pages again costs a
hypervisor fault whose price follows the host's load, and about a third of
`large_n`'s time went to page faults.  If the build
fails, for example because the repository's crates are missing, this exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
KEEP_FREED_MEMORY = {
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 62),
}


def main():
    os.chdir(ROOT)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(BENCH_DIR, "target"))
    binary = os.path.join(target, "release", "perfbench")
    os.environ.update(KEEP_FREED_MEMORY)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
