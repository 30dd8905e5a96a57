#!/usr/bin/env python3
"""Compare two BENCH_*.json files as parsed JSON.

    bench_json_diff.py OLD NEW [--ignore KEY ...]

Fails (exit 1) when a key path of OLD is missing from NEW or holds a
different value there; keys that only NEW has are allowed, so a bench
may report more than it used to. Arrays must keep their length and
are compared element by element. Two digest strings compare by value,
so "0x00ab..." equals "00ab..." (the hex spelling may differ, the
digest may not). --ignore drops a key name at every depth (e.g.
--ignore threads). Exit 2 on a usage or parse error.
"""

import argparse
import json
import re
import sys

HEX_DIGEST = re.compile(r"^(0x)?[0-9a-f]{16}$")


def same_leaf(old, new):
    if isinstance(old, str) and isinstance(new, str):
        if HEX_DIGEST.match(old) and HEX_DIGEST.match(new):
            return int(old, 16) == int(new, 16)
    # bool is an int in Python: keep true distinct from 1.
    if isinstance(old, bool) or isinstance(new, bool):
        return type(old) is type(new) and old == new
    return old == new


def compare(old, new, path, ignore, problems):
    if isinstance(old, dict):
        if not isinstance(new, dict):
            problems.append(f"{path}: object became {type(new).__name__}")
            return
        for key, value in old.items():
            if key in ignore:
                continue
            where = f"{path}.{key}" if path else key
            if key not in new:
                problems.append(f"{where}: missing")
            else:
                compare(value, new[key], where, ignore, problems)
    elif isinstance(old, list):
        if not isinstance(new, list) or len(old) != len(new):
            size = len(new) if isinstance(new, list) else type(new).__name__
            problems.append(f"{path}: array of {len(old)} became {size}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            compare(a, b, f"{path}[{i}]", ignore, problems)
    elif not same_leaf(old, new):
        problems.append(f"{path}: {old!r} -> {new!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    # "extend": a repeated --ignore adds its keys to the earlier ones.
    parser.add_argument("--ignore", nargs="*", action="extend",
                        default=[], metavar="KEY")
    args = parser.parse_args()
    try:
        with open(args.old) as f:
            old = json.load(f)
        with open(args.new) as f:
            new = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_json_diff: {err}", file=sys.stderr)
        return 2

    problems = []
    compare(old, new, "", set(args.ignore), problems)
    for line in problems[:50]:
        print(line)
    if len(problems) > 50:
        print(f"... and {len(problems) - 50} more")
    if problems:
        print(f"{args.new}: {len(problems)} difference(s) from {args.old}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
