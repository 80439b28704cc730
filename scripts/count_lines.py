#!/usr/bin/env python3
"""Counts the workspace's Rust lines, split into non-test and test lines.

Non-test lines are every line of every `.rs` file outside `vendor/`,
`perfbench/`, `target/` and `tests/` directories, docs and blank lines
included, minus the lines of `#[cfg(test)] mod` blocks.  Test lines are
those blocks plus every `.rs` line under a `tests/` directory.

Run from anywhere: `python3 scripts/count_lines.py [ROOT]` (ROOT defaults
to the repository holding this script).  Prints two lines,
`non-test <N>` and `test <M>`.
"""

import os
import re
import sys

SKIPPED = {"vendor", "perfbench", "target"}
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")
MOD = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s+\w+\s*\{")


def cfg_test_lines(lines):
    """Number of lines inside `#[cfg(test)] mod NAME { ... }` blocks,
    counting the attribute line and the closing brace."""
    total = 0
    i = 0
    while i < len(lines):
        if CFG_TEST.match(lines[i]) and i + 1 < len(lines) and MOD.match(lines[i + 1]):
            depth = 0
            j = i + 1
            while j < len(lines):
                depth += lines[j].count("{") - lines[j].count("}")
                if depth == 0:
                    break
                j += 1
            total += j - i + 1
            i = j + 1
        else:
            i += 1
    return total


def count(root):
    non_test = test = 0
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = sorted(d for d in subdirs if d not in SKIPPED and not d.startswith("."))
        in_tests = "tests" in os.path.relpath(directory, root).split(os.sep)
        for name in files:
            if not name.endswith(".rs"):
                continue
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                lines = f.read().splitlines()
            if in_tests:
                test += len(lines)
            else:
                cfg = cfg_test_lines(lines)
                test += cfg
                non_test += len(lines) - cfg
    return non_test, test


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(here)
    non_test, test = count(root)
    print(f"non-test {non_test}")
    print(f"test {test}")


if __name__ == "__main__":
    main()
