#!/usr/bin/env python3
"""List who reads each member of the counter structs under some directories.

A counter struct is a struct whose name ends in Stats, Result, Report,
Outcome or Counts. For each of its data members the census lists every
place in src/, bench/, examples/, perfbench/ and tests/ that reads it,
in three groups:

    lib    library code under src/
    bench  bench, example and perfbench code
    tests  tests/

A read is a member access (`r.kv.logAppends`, `log->stats().commits`),
a pointer to member (`&R::scrubRepairs`, how a stats::CounterSet
exports a row), or an unqualified use inside the struct's own member
functions. These are not reads: an assignment or compound assignment
(`x.f = ...`, `x.f += ...`), `++`/`--`, a container update
(`x.f.push_back(...)`), a designated initialiser (`{.f = ...}`), and
the right-hand side of an update of the same member (`x.f =
std::max(x.f, v)`). A struct with a defaulted `operator==` or
`operator<=>` reads every member.

The receiver of an access is typed through the declarations of its
file (variables and parameters, `auto` and range-for variables from
their initialiser, `using` aliases) and the data members, methods and
functions of every struct and class in the scanned files; a
`std::vector<T>` or `std::unique_ptr<T>` counts as a T. An access
whose receiver cannot be typed counts for every counter struct with a
member of that name.

    python3 scripts/counter_census.py src

Prints one line per member and a per-struct summary. Exits 1 when a
member has no reader anywhere: a counter nothing reads is dead weight
on every run.
"""

import argparse
import pathlib
import re
import sys

import knob_census as kc

GROUPS = ("lib", "bench", "tests")
STRUCT = kc.struct_pattern(r"\w*(?:Stats|Result|Report|Outcome|Counts)")
ANY_STRUCT = kc.struct_pattern(r"\w+")
KEYWORDS = kc.KEYWORDS | {"if", "for", "while", "switch", "do", "catch",
                          "decltype", "alignof", "noexcept", "this"}
IDENT = re.compile(r"[A-Za-z_]\w*")
TOKEN = re.compile(r"[A-Za-z_]\w*|::|->|\S")
DEFAULTED_EQ = re.compile(
    r"\boperator\s*(?:==|<=>)\s*\([^()]*\)\s*const\s*(?:noexcept\s*)?"
    r"=\s*default\b")
# `.name` or `->name` after an expression (not a designated `{.f =`).
MEMBER = re.compile(r"(?<=[\w\)\]])\s*(?:\.(?!\.)|->)\s*"
                    r"([A-Za-z_]\w*)\b")
# The rest of a chain after a member: `.c`, `->d`, `[i]`.
TAIL = re.compile(r"(?:\s*(?:\.(?!\.)|->)\s*[A-Za-z_]\w*\b(?!\s*\()|"
                  r"\s*\[[^\]]*\])*")
MEMBER_PTR = re.compile(r"&\s*(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)::"
                        r"([A-Za-z_]\w*)\b")
# What follows a chain that makes it an update, not a read.
UPDATE_AFTER = re.compile(
    r"\s*(?:(?:[-+*/%|&^]|<<|>>)?=(?!=)|\+\+|--|"
    r"\.(?:push_back|emplace_back|assign|resize|insert|clear|reserve)"
    r"\s*\()")
UPDATE_BEFORE = re.compile(r"(?:\+\+|--)\s*$")
CALL = re.compile(r"\s*\(")
TYPE = r"(?:[A-Za-z_]\w*::)*[A-Za-z_]\w*(?:\s*<[^;{}()]*?>)?"
# `Type name(`: a method or function declaration or definition.
FUNCTION = re.compile(r"(?<![\w:.>])(" + TYPE + r")\s*(?:const\s*)?"
                      r"[&*]*\s*((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\(")
# `Type x;`, `const ns::Type<A> &x =`, `f(Type x)`.
VARIABLE = re.compile(r"(?<![\w.>:])(" + TYPE + r")\s*(?:const\s*)?"
                      r"(?:&&|&|\*)*\s*(?:const\s*)?([A-Za-z_]\w*)\s*"
                      r"(?=[;,)={\[]|:(?!:)|\((?!\s*\)))")
AUTO = re.compile(r"\bauto\s*(?:&&|&|\*)?\s*([A-Za-z_]\w*)\s*=\s*([^;]*);")
RANGE_FOR = re.compile(r"\bfor\s*\(\s*(?:const\s+)?" + TYPE +
                       r"\s*(?:&&|&|\*)?\s*([A-Za-z_]\w*)\s*:")
ALIAS = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=\s*([^;]*);")


class Types:
    """Data-member, method and function types of every struct and
    class in the scanned files, by name."""

    def __init__(self, files):
        structs = [s for path, text in files.items()
                   for s in kc.parse_structs(path, text, ANY_STRUCT)]
        self.known = {s.name for s in structs}
        self.members, self.methods, self.bases = {}, {}, {}
        self.functions = {}
        for s in structs:
            self.bases.setdefault(s.name, set()).add(s.base)
            for f, _ in s.fields:
                self.members.setdefault(s.name, {}).setdefault(
                    f, set()).update(self.of(s.heads[f], f))
        for path, text in files.items():
            here = [s for s in structs if s.path == path]
            for m in FUNCTION.finditer(text):
                if m.group(1) in KEYWORDS:
                    continue
                owner, _, name = m.group(2).rpartition("::")
                for s in here:
                    if (s.body[0] <= m.start() < s.body[1]
                            and kc.depth_at(text, s.body[0],
                                            m.start() - s.body[0]) == 0):
                        owner = s.name
                table = (self.methods.setdefault(owner, {}) if owner
                         else self.functions)
                table.setdefault(name, set()).update(self.of(m.group(1)))

    def of(self, type_text, name=None):
        """The struct a declared type denotes: its last known struct
        name, so `std::vector<T>` and `std::unique_ptr<T>` give T."""
        names = [n for n in IDENT.findall(type_text)
                 if n in self.known and n != name]
        return {names[-1]} if names else set()

    def lineage(self, name):
        seen, todo = set(), [name]
        while todo:
            n = todo.pop()
            if n and n not in seen:
                seen.add(n)
                yield n
                todo.extend(self.bases.get(n, ()))

    def lookup(self, types, table, name):
        return {t for owner in types for n in self.lineage(owner)
                for t in table.get(n, {}).get(name, ())}


def skip_group(tokens, i):
    """Index after the bracketed group that opens at tokens[i]."""
    depth = 0
    for j in range(i, len(tokens)):
        depth += tokens[j] in ("(", "[")
        depth -= tokens[j] in (")", "]")
        if depth == 0:
            return j + 1
    return len(tokens)


def opening(text, close):
    """Offset of the bracket that the one at @p close closes."""
    depth = 0
    for j in range(close, -1, -1):
        depth += text[j] in ")]"
        depth -= text[j] in "(["
        if depth == 0:
            return j
    return 0


def receiver_start(text, end):
    """Start of the expression `a.b(x)[i]->c` that ends at @p end."""
    i = end
    while True:
        j = i - 1
        while j >= 0 and (text[j].isspace() or text[j] in ")]"):
            j = (opening(text, j) if text[j] in ")]" else j) - 1
        k = j
        while k >= 0 and (text[k].isalnum() or text[k] == "_"):
            k -= 1
        if k == j:  # no name: not a chain
            return i
        i, j = k + 1, k
        while j >= 0 and text[j].isspace():
            j -= 1
        if j >= 1 and text[j - 1:j + 1] in ("->", "::"):
            i = j - 1
        elif j >= 0 and text[j] == ".":
            i = j
        else:
            return i


class Scope:
    """What the declarations of one file say about its names."""

    def __init__(self, types, text):
        self.types = types
        self.vars = {}
        for m in VARIABLE.finditer(text):
            if m.group(1) not in KEYWORDS and m.group(2) not in KEYWORDS:
                self.declare(m.group(2), types.of(m.group(1)))
        for m in ALIAS.finditer(text):
            self.declare(m.group(1), types.of(m.group(2)))
        # `auto x = a.f();`, `for (auto &c : r.cells)`: the type of the
        # initialiser, or of an element of the range.
        for m in AUTO.finditer(text):
            self.declare(m.group(1), self.resolve(m.group(2)))
        for m in RANGE_FOR.finditer(text):
            close = kc.match_brace(text, text.index("(", m.start()))
            self.declare(m.group(1), self.resolve(text[m.end():close]))

    def declare(self, name, types):
        self.vars.setdefault(name, set()).update(types or ())

    def resolve(self, expr):
        """Struct types @p expr can denote, or None when unknown."""
        tokens = TOKEN.findall(expr)
        i = 0
        while i + 1 < len(tokens) and tokens[i + 1] == "::":
            i += 2
        if i >= len(tokens) or not IDENT.fullmatch(tokens[i]):
            return None
        if i + 1 < len(tokens) and tokens[i + 1] == "(":
            types = self.types.functions.get(tokens[i], set())
            i = skip_group(tokens, i + 1)
        else:
            types = self.vars.get(tokens[i], set())
            i += 1
        while i < len(tokens) and types:
            if tokens[i] == "[":
                i = skip_group(tokens, i)
                continue
            if tokens[i] not in (".", "->") or i + 1 >= len(tokens):
                return None
            name, i = tokens[i + 1], i + 2
            if i < len(tokens) and tokens[i] == "(":
                types = self.types.lookup(types, self.types.methods, name)
                i = skip_group(tokens, i)
            else:
                types = self.types.lookup(types, self.types.members, name)
        return types or None


class Census:
    """Reader census over the counter structs under src/."""

    def __init__(self, structs, types):
        self.structs = {s.name: s for s in structs}
        self.types = types
        self.readers = {(s.name, f): {g: [] for g in GROUPS}
                        for s in structs for f, _ in s.fields}
        self.fields = {}
        for s in structs:
            for f, _ in s.fields:
                self.fields.setdefault(f, set()).add(s.name)

    def record_read(self, types, field, group, where):
        types = types or set()
        hits = {n for t in types for n in self.types.lineage(t)
                if n in self.fields.get(field, ())}
        if not hits and any(field in self.types.members.get(n, {})
                            for t in types
                            for n in self.types.lineage(t)):
            return  # a member of a struct outside the census
        if not hits:  # untyped: every struct with such a member
            hits = self.fields.get(field, set())
        for name in hits:
            self.readers[(name, field)][group].append(where)

    def scan(self, path, text, header, group):
        scope = Scope(self.types, header + text)
        line = lambda at: f"{path}:{text.count(chr(10), 0, at) + 1}"
        updated = self_updates(text)
        for m in MEMBER.finditer(text):
            field, at = m.group(1), m.start(1)
            end = TAIL.match(text, m.end()).end()
            start = receiver_start(text, m.start())
            method = end == m.end() and CALL.match(text, end)
            if (field not in self.fields or method or at in updated
                    or is_update(text, start, end)):
                continue
            self.record_read(scope.resolve(text[start:m.start()]), field,
                             group, line(at))
        for m in MEMBER_PTR.finditer(text):
            if m.group(2) in self.fields:
                owner = m.group(1)
                types = ({owner} if owner in self.structs
                         else scope.vars.get(owner))
                self.record_read(types, m.group(2), group,
                                 line(m.start(2)))
        for s in self.structs.values():
            if s.path == path:
                self.own_reads(s, text, group, line)

    def own_reads(self, s, text, group, line):
        """Unqualified reads in a struct's own member functions, or
        every member when it defaults its comparison."""
        start, end = s.body
        body = text[start:end]
        eq = DEFAULTED_EQ.search(body)
        if eq:
            for f, _ in s.fields:
                self.readers[(s.name, f)][group].append(
                    line(start + eq.start()))
            return
        own = {f for f, _ in s.fields}
        for m in re.finditer(r"(?<![\w.>:])([A-Za-z_]\w*)\b", body):
            if (m.group(1) in own
                    and kc.depth_at(text, start, m.start()) > 0
                    and not is_update(body, m.start(),
                                      TAIL.match(body, m.end()).end())):
                self.record_read({s.name}, m.group(1), group,
                                 line(start + m.start()))


def is_update(text, start, end):
    return bool(UPDATE_AFTER.match(text, end)
                or UPDATE_BEFORE.search(text[max(0, start - 8):start]))


def self_updates(text):
    """Member offsets of every read inside the right-hand side of an
    assignment to that same chain: `x.f = std::max(x.f, v);`."""
    out = set()
    for m in re.finditer(r"((?:\b[A-Za-z_]\w*\s*(?:\.|->)\s*)+"
                         r"[A-Za-z_]\w*)\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)",
                         text):
        target = re.sub(r"\s+", "", m.group(1))
        stop = text.find(";", m.end())
        rhs = text[m.end():stop if stop >= 0 else len(text)]
        for r in MEMBER.finditer(rhs):
            chain = rhs[receiver_start(rhs, r.start()):r.end()]
            if re.sub(r"\s+", "", chain) == target:
                out.add(m.end() + r.start(1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", help="directories to census")
    args = parser.parse_args()

    files = {}
    for top in kc.SCAN:
        for p in sorted((kc.ROOT / top).rglob("*")):
            if p.suffix in (".cc", ".hh"):
                files[p.relative_to(kc.ROOT).as_posix()] = kc.strip(
                    p.read_text())
    wanted = [pathlib.Path(d).resolve().relative_to(kc.ROOT).as_posix()
              + "/" for d in args.dirs]
    # Every counter struct in src/ is censused; DIRs are reported.
    census = Census([s for path, text in files.items()
                     if path.startswith("src/")
                     for s in kc.parse_structs(path, text, STRUCT)],
                    Types(files))
    structs = [s for s in census.structs.values()
               if s.path.startswith(tuple(wanted))]
    for path, text in files.items():
        header = files.get(path[:-3] + ".hh", "") \
            if path.endswith(".cc") else ""
        census.scan(path, text, header, kc.group_of(path))

    unread = []
    summary = []
    for s in sorted(structs, key=lambda s: (s.path, s.line)):
        test_only = 0
        print(f"{s.name} ({s.path}:{s.line})")
        for f, _ in s.fields:
            where = census.readers[(s.name, f)]
            counts = " ".join(f"{g}={len(where[g])}" for g in GROUPS)
            print(f"  {f:28s} {counts}")
            for g in GROUPS:
                if where[g]:
                    print(f"    {g}: " + " ".join(sorted(set(where[g]))))
            if not any(where[g] for g in ("lib", "bench")):
                test_only += 1
            if not any(where.values()):
                unread.append(f"{s.name}::{f} ({s.path}:{s.line})")
        summary.append((s.name, len(s.fields), test_only))
    print()
    print(f"{'struct':28s} fields  no-non-test-reader")
    for name, n, test_only in summary:
        print(f"{name:28s} {n:6d}  {test_only:6d}")
    total = sum(n for _, n, _ in summary)
    loose = sum(t for _, _, t in summary)
    print(f"{'total':28s} {total:6d}  {loose:6d}")
    for name in unread:
        print(f"error: {name} has no reader anywhere", file=sys.stderr)
    return 1 if unread else 0


if __name__ == "__main__":
    sys.exit(main())
