#!/usr/bin/env python3
"""List who sets each field of the config structs under some directories.

A config struct is a struct whose name ends in Config, Params, Setup,
Spec or Policy. For each of its data members the census lists every
place in src/, bench/, examples/, perfbench/ and tests/ that gives it
a value, in four groups:

    lib    library code under src/
    bench  bench, example and perfbench code
    flags  CLI flag bindings (`flag("--x", "N", cfg.field)`, `msFlag`,
           and the `--seed`/`--threads` of `campaignMain`)
    tests  tests/

A setter is an assignment (`cfg.kv.poolBase = ...`, `x.f += ...`,
`x.list.push_back(...)`), a mutable reference bound to a member
(`Nemesis &n = cfg.nemesis;`), a designated initialiser
(`{.field = ...}`), a positional aggregate initialiser (`Spec{a, b}`
sets the first two fields), or an unqualified assignment inside a
config struct's own body (a derived config's constructor setting a
base field). Setting `cfg.kv.queueCapacity` also sets `cfg.kv`. The receiver of an assignment is
resolved through the variable declarations of its file and the member
types of the structs; a receiver that cannot be resolved counts for
every config struct with a field of that name. Copying a whole struct
sets none of its fields.

    python3 scripts/knob_census.py src

Prints one line per field and a per-struct summary. Exits 1 when a
field of a struct declared under src/net, src/cluster, src/fault,
src/persist or src/workload has no setter anywhere: a value nothing
sets is a constant. Structs elsewhere in src/ are listed but not
gated; the hardware structs among them (src/platform, src/cpu,
src/mem, src/psm, src/cache) carry Table I values that no caller
needs to set.

It also exits 1 when every lib, bench and flag setter of a field of
any listed struct assigns the literal the field's default already
has (`part.span = 1;` against `span = 1`): a knob only tests vary is
a constant too.
"""

import argparse
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCAN = ("src", "bench", "examples", "perfbench", "tests")
GATED = ("src/net/", "src/cluster/", "src/fault/", "src/persist/",
         "src/workload/")
GROUPS = ("lib", "bench", "flags", "tests")
SUFFIX = r"\w*(?:Config|Params|Setup|Spec|Policy)"

COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
STRING = re.compile(r'"(?:\\.|[^"\\\n])*"')

def struct_pattern(suffix):
    """`struct Name : Base {` for names matching @p suffix; an
    `enum class Name {` is not a struct."""
    return re.compile(
        r"(?<!enum )\b(?:struct|class)\s+(" + suffix + r")\b\s*"
        r"(?:final\s*)?(?::\s*(?:public\s+)?([\w:]+))?\s*\{")


STRUCT = struct_pattern(SUFFIX)
SKIP = re.compile(r"^(?:static|using|typedef|friend|enum|struct|class|"
                  r"template|constexpr|virtual|explicit|operator)\b")
DECL = re.compile(r"^(?:const\s+|mutable\s+)?([\w:<>,\s\*&]+?)[\s\*&]+"
                  r"(\w+)\s*(?:\[[^\]]*\])?\s*(?:=.*|\{.*\})?$", re.S)
# `a.b->c = v`, `x.f += v`: the chain, then the assigned member.
ASSIGN = re.compile(
    r"((?:\b[A-Za-z_]\w*(?:\(\))?(?:\[[^\]]*\])*\s*(?:\.|->)\s*)+)"
    r"([A-Za-z_]\w*)\s*(?:(?:[-+*/|&^]|<<|>>)?=(?!=)|"
    r"\.(?:push_back|emplace_back|assign|resize|insert|clear)\()")
# `Type &x = cfg.member;`: a mutable alias customises the member.
REF_BIND = re.compile(
    r"(?<![\w&])(?<!const )[\w:]+\s*&\s*\w+\s*=\s*"
    r"((?:[A-Za-z_]\w*\s*(?:\.|->)\s*)+)([A-Za-z_]\w*)\s*;")
# `campaignMain(argc, argv, cfg.seed, cfg.threads, c);` binds --seed
# and --threads to its third and fourth arguments.
CAMPAIGN_MAIN = re.compile(r"\bcampaignMain\s*\(([^;]*)\)\s*;")
DESIGNATED = re.compile(r"([{,])\s*\.([A-Za-z_]\w*)\s*=(?!=)")
FLAG = re.compile(
    r"\b\w*[Ff]lag\(\s*(?:\"[^\"]*\"\s*,\s*)*"
    r"((?:[A-Za-z_]\w*\s*(?:\.|->)\s*)+)([A-Za-z_]\w*)\s*\)")
# `Type x;`, `const ns::Type &x =`, `Type<A> x{`, `f(Type x)`.
DECLARED = re.compile(
    r"(?<![\w.>])(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*(?:<[^;{}()]*?>)?"
    r"\s*(?:const\s*)?(?:&&|&|\*)*\s*(?:const\s*)?([A-Za-z_]\w*)\s*"
    r"(?=[;,)={\[:]|\((?!\s*\)))")
NEXT_DECLARATOR = re.compile(r"\s*,\s*[&*]?\s*([A-Za-z_]\w*)\s*(?=[,;={])")
# A literal default: a number, a bool, nullptr or a scoped enumerator.
LITERAL = re.compile(r"[-+]?(?:\d[\w.']*|true|false|nullptr)|\w+(?:::\w+)+")
KEYWORDS = {"return", "const", "auto", "new", "delete", "case", "else",
            "sizeof", "typename", "static_cast", "override", "throw",
            "goto", "using", "namespace", "struct", "class", "enum",
            "public", "private", "protected", "operator", "co_return",
            "static", "inline", "constexpr", "typedef", "template"}


def strip(text):
    """Blank comments and string contents, keeping offsets and lines."""
    text = COMMENT.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
    return STRING.sub(lambda m: '"' + " " * (len(m.group(0)) - 2) + '"',
                      text)


def literal(text):
    """@p text as a comparable literal, or None when it is not one."""
    text = "".join((text or "").split())
    if not LITERAL.fullmatch(text):
        return None
    if re.match(r"[-+]?0[xX]", text):
        return text.lower()
    number = re.sub(r"(?<=\d)(?:[uUlL]+|[fF])$", "", text)
    try:
        return float(number)
    except ValueError:
        return text


def match_brace(text, open_at):
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] in "{(":
            depth += 1
        elif text[i] in "})":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def split_top(body):
    """Top-level statements of a struct body, nested blocks elided."""
    out, cur, i = [], [], 0
    while i < len(body):
        c = body[i]
        if c in "{(":
            end = match_brace(body, i)
            cur.append(c + " " * (end - i - 1) + body[end])
            head = "".join(cur[:-1]).strip()
            i = end + 1
            # A function body ends its statement without a semicolon.
            if c == "{" and re.search(r"\)\s*(?:const|noexcept|override|"
                                      r"final|\s)*$|\)\s*:.*$", head,
                                      re.S):
                cur = []
            continue
        if c == ";":
            out.append("".join(cur))
            cur = []
        elif c == ":" and re.fullmatch(r"\s*(?:public|private|protected)\s*",
                                       "".join(cur)):
            cur = []
        else:
            cur.append(c)
        i += 1
    return out


class Struct:
    def __init__(self, name, base, path, line):
        self.name, self.base, self.path, self.line = name, base, path, line
        self.fields = []       # (name, type) in declaration order
        self.heads = {}        # name -> its declaration up to the name
        self.defaults = {}     # name -> its initialiser text
        self.body = (0, 0)     # offsets of the body in its file


def parse_structs(path, text, pattern=STRUCT):
    structs = []
    for m in pattern.finditer(text):
        end = match_brace(text, m.end() - 1)
        s = Struct(m.group(1), (m.group(2) or "").split("::")[-1] or None,
                   path, text.count("\n", 0, m.start()) + 1)
        s.body = (m.end(), end)
        for stmt in split_top(text[m.end():end]):
            stmt = " ".join(stmt.split())
            # Template arguments may hold calls: `std::array<T, f(N)> x`.
            flat = re.sub(r"<[^;{}=]*>", "<>", stmt)
            if not stmt or SKIP.match(flat) or "(" in flat.split("=")[0]:
                continue
            d = DECL.match(flat)
            if d and d.group(2) not in KEYWORDS:
                s.fields.append((d.group(2), d.group(1).split("::")[-1]))
                s.heads[d.group(2)] = stmt.split("=")[0].split("{")[0]
                init = re.search(r"=(?!=)(.*)$|\{(.*)\}\s*$", stmt)
                if init:
                    s.defaults[d.group(2)] = init.group(1) or init.group(2)
        structs.append(s)
    return structs


class Census:
    def __init__(self, structs):
        self.structs = {s.name: s for s in structs}
        self.setters = {(s.name, f): {g: [] for g in GROUPS}
                        for s in structs for f, _ in s.fields}
        # (struct, field) -> the value text of each non-test setter,
        # None where it is not a plain assignment.
        self.values = {key: [] for key in self.setters}

    def lineage(self, name):
        while name in self.structs:
            yield self.structs[name]
            name = self.structs[name].base

    def owner(self, name, field):
        """(struct declaring @p field, its type) seen from @p name."""
        for s in self.lineage(name):
            for f, t in s.fields:
                if f == field:
                    return s.name, t
        return None, None

    def resolve(self, chain, vars_, walked=None):
        """Config struct types the member chain `a.b.` can denote, or
        None when its root is not a declared variable. Each (types,
        member) step is appended to @p walked."""
        parts = [p for p in re.split(r"\s*(?:\.|->)\s*", chain) if p]
        root = re.sub(r"\(\)|\[.*", "", parts[0])
        if root not in vars_:
            return None
        types = vars_[root] & set(self.structs)
        for part in parts[1:]:
            part = re.sub(r"\(\)|\[.*", "", part)
            if walked is not None and types:
                walked.append((types, part))
            types = {self.owner(t, part)[1] for t in types} & set(
                self.structs)
        return types

    def record(self, types, field, group, where, value=None):
        if types is None:  # unresolved: every struct with such a field
            hits = {s.name for s in self.structs.values()
                    if any(f == field for f, _ in s.fields)}
        else:
            hits = {self.owner(t, field)[0] for t in types} - {None}
        for name in hits:
            self.setters[(name, field)][group].append(where)
            if group != "tests":
                self.values[(name, field)].append(value)

    def declared_vars(self, text):
        """Variable -> the type names it is declared with."""
        vars_ = {}
        for m in DECLARED.finditer(text):
            if m.group(1) in KEYWORDS or m.group(2) in KEYWORDS:
                continue
            vars_.setdefault(m.group(2), set()).add(m.group(1))
            # `Type a, b;` declares b too.
            more = NEXT_DECLARATOR.match(text, m.end())
            while more:
                vars_.setdefault(more.group(1), set()).add(m.group(1))
                more = NEXT_DECLARATOR.match(text, more.end())
        # `auto &x = cfg.kv;` takes the type of its initialiser.
        for m in re.finditer(r"\bauto\s*&?\s*(\w+)\s*=\s*([\w.>\-]+);",
                             text):
            chain = m.group(2).replace("->", ".")
            head, _, last = chain.rpartition(".")
            types = self.resolve(head + ".", vars_) if head else None
            if types:
                types = {self.owner(t, last)[1] for t in types}
                vars_.setdefault(m.group(1), set()).update(types)
        return vars_

    def set_chain(self, chain, member, vars_, group, where, value=None):
        """Record `chain.member` as set (to @p value). Setting
        `cfg.kv.poolBase` also customises `cfg.kv`."""
        walked = []
        types = self.resolve(chain, vars_, walked)
        for owners, walked_member in walked:
            self.record(owners, walked_member, group, where)
        self.record(types, member, group, where, value)

    def scan(self, path, text, header, group):
        vars_ = self.declared_vars(header + text)
        line = lambda at: f"{path}:{text.count(chr(10), 0, at) + 1}"
        flags = "flags" if group != "tests" else group
        flagged = set()
        for m in FLAG.finditer(text):
            self.set_chain(m.group(1), m.group(2), vars_, flags,
                           line(m.start()))
            flagged.add(m.start(1))
        for m in CAMPAIGN_MAIN.finditer(text):
            for arg in m.group(1).split(",")[2:4]:
                chain, _, member = arg.strip().rpartition(".")
                if chain:
                    self.set_chain(chain + ".", member, vars_, flags,
                                   line(m.start()))
        for m in [*ASSIGN.finditer(text), *REF_BIND.finditer(text)]:
            if m.start(1) in flagged:
                continue
            plain = text[m.end(2):m.end()].strip() == "="
            value = text[m.end():text.find(";", m.end())] if plain \
                else None
            self.set_chain(m.group(1), m.group(2), vars_, group,
                           line(m.start(2)), value)
        for m in DESIGNATED.finditer(text):
            end = m.end()
            while end < len(text) and text[end] not in ",}":
                end = match_brace(text, end) + 1 \
                    if text[end] in "{(" else end + 1
            self.record(self.braced_type(text, m.start(), vars_),
                        m.group(2), group, line(m.start(2)),
                        text[m.end():end])
        self.aggregates(text, group, line)
        for s in self.structs.values():
            if s.path == path:
                self.own_body(s, text, group, line)

    def braced_type(self, text, at, vars_):
        """Struct type of the braced list enclosing offset @p at."""
        depth = 0
        for i in range(at, -1, -1):
            if text[i] == "}":
                depth += 1
            elif text[i] == "{":
                if depth == 0:
                    before = re.search(r"([\w:]+)\s*(?:([\w]+)\s*)?=?\s*$",
                                       text[:i])
                    if not before:
                        return None
                    name = before.group(1).split("::")[-1]
                    if name in self.structs:
                        return {name}
                    return self.resolve(name, vars_)
                depth -= 1
        return None

    def aggregates(self, text, group, line):
        names = "|".join(sorted(self.structs, key=len, reverse=True))
        agg = re.compile(r"\b(" + names + r")\b\s*(?:\w+\s*)?=?\s*\{")
        for m in agg.finditer(text):
            close = match_brace(text, m.end() - 1)
            inner = text[m.end():close].strip()
            if (not inner or inner.startswith(".")
                    or re.search(r"\b(?:struct|class)\s*$",
                                 text[:m.start()])):
                continue
            count = len(top_commas(inner)) + 1
            fields = list(self.all_fields(m.group(1)))[:count]
            for owner, field in fields:
                self.setters[(owner, field)][group].append(
                    line(m.start()))

    def all_fields(self, name):
        for s in reversed(list(self.lineage(name))):
            for f, _ in s.fields:
                yield s.name, f

    def own_body(self, s, text, group, line):
        """Unqualified assignments in a struct's own member functions."""
        start, end = s.body
        own = {f for _, f in self.all_fields(s.name)}
        for m in re.finditer(r"(?<![\w.>])([A-Za-z_]\w*)\s*=(?!=)",
                             text[start:end]):
            if m.group(1) in own and depth_at(text, start, m.start()) > 0:
                self.record({s.name}, m.group(1), group,
                            line(start + m.start()))


def top_commas(text):
    depth, out = 0, []
    for i, c in enumerate(text):
        if c in "({[<":
            depth += 1
        elif c in ")}]>":
            depth -= 1
        elif c == "," and depth == 0:
            out.append(i)
    return out


def depth_at(text, start, offset):
    body = text[start:start + offset]
    return body.count("{") - body.count("}")


def group_of(path):
    top = path.split("/", 1)[0]
    return {"src": "lib", "tests": "tests"}.get(top, "bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", help="directories to census")
    args = parser.parse_args()

    files = {}
    for top in SCAN:
        for p in sorted((ROOT / top).rglob("*")):
            if p.suffix in (".cc", ".hh"):
                files[p.relative_to(ROOT).as_posix()] = strip(p.read_text())
    wanted = [pathlib.Path(d).resolve().relative_to(ROOT).as_posix() + "/"
              for d in args.dirs]
    # Every config struct in src/ resolves receivers; DIRs are reported.
    census = Census([s for path, text in files.items()
                     if path.startswith("src/")
                     for s in parse_structs(path, text)])
    structs = [s for s in census.structs.values()
               if s.path.startswith(tuple(wanted))]
    for path, text in files.items():
        header = files.get(path[:-3] + ".hh", "") if path.endswith(".cc") \
            else ""
        census.scan(path, text, header, group_of(path))

    unset = []
    restated = []
    summary = []
    for s in sorted(structs, key=lambda s: (s.path, s.line)):
        test_only = 0
        print(f"{s.name} ({s.path}:{s.line})")
        for f, _ in s.fields:
            where = census.setters[(s.name, f)]
            counts = " ".join(f"{g}={len(where[g])}" for g in GROUPS)
            print(f"  {f:28s} {counts}")
            for g in GROUPS:
                if where[g]:
                    print(f"    {g}: " + " ".join(sorted(set(where[g]))))
            if not any(where[g] for g in ("lib", "bench", "flags")):
                test_only += 1
            if not any(where.values()) and s.path.startswith(GATED):
                unset.append(f"{s.name}::{f}")
            default = literal(s.defaults.get(f))
            values = census.values[(s.name, f)]
            if default is not None and values and all(
                    literal(v) == default for v in values):
                restated.append(f"{s.name}::{f}")
        summary.append((s.name, len(s.fields), test_only))
    print()
    print(f"{'struct':28s} fields  no-non-test-setter")
    for name, n, test_only in summary:
        print(f"{name:28s} {n:6d}  {test_only:6d}")
    total = sum(n for _, n, _ in summary)
    loose = sum(t for _, _, t in summary)
    print(f"{'total':28s} {total:6d}  {loose:6d}")
    for name in unset:
        print(f"error: {name} has no setter anywhere", file=sys.stderr)
    for name in restated:
        print(f"error: every non-test setter of {name} assigns its "
              "default", file=sys.stderr)
    return 1 if unset or restated else 0


if __name__ == "__main__":
    sys.exit(main())
