#!/usr/bin/env python3
"""Count the code lines of the C++ sources under some directories.

A code line is a line that is neither blank nor only comment: `//`
comments and `/* ... */` blocks are stripped first. Simplicity changes
report their net effect with it, before and after:

    python3 scripts/code_lines.py --rev HEAD~1 src/net src/cluster
    python3 scripts/code_lines.py src/net src/cluster

Without --rev the working tree is read; with it, the files as they are
at that git revision. Prints one line per .cc/.hh file and the total.
"""

import argparse
import pathlib
import re
import subprocess
import sys

BLOCK = re.compile(r"/\*.*?\*/", re.S)
LINE = re.compile(r"//[^\n]*")


def code_lines(text):
    # Keep the newlines of a block comment so line structure survives.
    text = BLOCK.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    text = LINE.sub("", text)
    return sum(1 for line in text.splitlines() if line.strip())


def sources(rev, dirs):
    if rev is None:
        for d in dirs:
            for path in sorted(pathlib.Path(d).rglob("*")):
                if path.suffix in (".cc", ".hh"):
                    yield str(path), path.read_text()
        return
    names = subprocess.run(
        ["git", "ls-tree", "-r", "--name-only", rev, "--", *dirs],
        check=True, capture_output=True, text=True).stdout.split()
    for name in sorted(names):
        if name.endswith((".cc", ".hh")):
            yield name, subprocess.run(
                ["git", "show", f"{rev}:{name}"], check=True,
                capture_output=True, text=True).stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="git revision (default: worktree)")
    parser.add_argument("dirs", nargs="+")
    args = parser.parse_args()
    total = 0
    for name, text in sources(args.rev, args.dirs):
        n = code_lines(text)
        total += n
        print(f"{n:7d} {name}")
    print(f"{total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
