#!/usr/bin/env python3
"""Compare the search byte oracle of a base revision with the working tree's.

From the repository root::

    make search-bodies-cmp BASE=<rev>

The base revision is checked out into a temporary ``git worktree``, which
is removed afterwards. This tree's ``benchmarks/search_bodies.py`` writes
the bodies on both sides (it imports only :mod:`perfbench`, so it runs on
an older checkout too), one side after the other, and the two files are
compared line by line. Exit status 0 means every body is byte-equal; on a
mismatch the script names the first differing line's workload, list and
query, and exits 1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRIPT = os.path.join(HERE, "search_bodies.py")


def write_bodies(checkout: str, out: str) -> None:
    """Run ``search_bodies.py`` against ``checkout``'s sources, into ``out``."""
    script = os.path.join(checkout, "benchmarks", "search_bodies.py")
    if os.path.abspath(script) != SCRIPT:
        os.makedirs(os.path.dirname(script), exist_ok=True)
        shutil.copyfile(SCRIPT, script)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "1"
    subprocess.run([sys.executable, script, out], cwd=checkout, env=env, check=True)


def first_difference(base: str, head: str):
    """``(line number, base line, head line)`` of the first mismatch, or None."""
    with open(base, "rb") as left, open(head, "rb") as right:
        for number, (a, b) in enumerate(zip_longest(left, right), 1):
            if a != b:
                return number, a, b
    return None


def describe(line) -> str:
    if line is None:
        return "(no line: the file ends here)"
    workload, section, query, params = line.decode("utf-8").split("\t")[:4]
    return f"workload={workload} list={section} q={query!r}" + (f" {params}" if params else "")


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: search_bodies_cmp.py BASE", file=sys.stderr)
        return 2
    base = argv[1]
    tmp = tempfile.mkdtemp(prefix="search-bodies-")
    worktree = os.path.join(tmp, "base")
    try:
        subprocess.run(
            ["git", "worktree", "add", "--detach", worktree, base], cwd=ROOT, check=True
        )
        base_out = os.path.join(tmp, "base.txt")
        head_out = os.path.join(tmp, "head.txt")
        write_bodies(worktree, base_out)
        write_bodies(ROOT, head_out)
        mismatch = first_difference(base_out, head_out)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree], cwd=ROOT)
        shutil.rmtree(tmp, ignore_errors=True)
    if mismatch is None:
        print(f"search-bodies-cmp: every body equals {base}'s")
        return 0
    number, before, after = mismatch
    print(f"search-bodies-cmp: line {number} differs from {base}'s")
    print(f"  {base}: {describe(before)}")
    print(f"  working tree: {describe(after)}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
