#!/usr/bin/env python3
"""Lint the configuration surface: every config field must be set somewhere.

A field of a `struct <Name>Config` in src/ exists only if something outside
its own declaration assigns it: a bench, the benchmark, an example, a test or
other library code. A field nothing sets is a constant in disguise; it
belongs as a named constexpr next to its one use (DESIGN.md section 5o,
"Configuration surface").

For every `struct *Config` under src/ the linter collects the leaf fields
(fields whose type is itself a `*Config` only nest another config and are
exempt) and searches src/, bench/, benchmark/, examples/ and tests/ for an
assignment of each by name, outside the declaring struct's body:

  .field =            (member assignment or designated initializer)
  .field[...]         (element assignment / map insertion)
  .field.push_back(   .field.emplace...(   .field.insert(

A positional aggregate initializer on one line, `FooConfig{a, b}`, counts as
assigning Foo's first two fields. Matching is by field name, so a field that
shares its name with a field set on another struct passes.

It prints the leaf-field counts before and after dropping the never-assigned
fields and lists each never-assigned field as Struct::field (file:line).

It also fails on a mutable `static` variable declared inside a function or a
class in src/ (an indented `static` declaration that is neither `const` nor
`constexpr` and reaches `=`, `;` or `{` before any `(`, so static member
functions pass). Such a variable is process-wide state: a seeded world's
bytes would depend on what the process built before it. Ids unique in a
world come from `sim::Simulator::next_id`.

It exits 1 when either list is not empty, 0 otherwise. Run from anywhere:

  python3 scripts/config_lint.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEARCH_DIRS = ("src", "bench", "benchmark", "examples", "tests")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".py"}

STRUCT_RE = re.compile(r"^struct\s+(\w+Config)\s*\{")
# A member declaration at struct depth 1: `Type name = init;`, `Type name;`
# or `Type name = {` continuing on later lines. Types may hold parentheses
# (`std::function<void(int)>`); a trailing keyword such as `const` marks a
# member function, not a field.
FIELD_RE = re.compile(r"^\s*(?P<type>[\w:<>(),\s\*&]+?)\s+(?P<name>\w+)\s*(=|;|\{)")
NOT_FIELD_NAMES = {"const", "override", "noexcept", "final"}
MUTABLE_STATIC_RE = re.compile(r"^\s+static\s+(?!const\b|constexpr\b)[^(=;{]*[=;{]")


def source_files():
    for d in SEARCH_DIRS:
        base = ROOT / d
        if base.is_dir():
            for path in sorted(base.rglob("*")):
                if path.suffix in SOURCE_SUFFIXES and path.is_file():
                    yield path


def strip_comment(line):
    return line.split("//", 1)[0]


def parse_configs(path, lines):
    """Yields (struct, field, type, lineno, body_range) for each field."""
    i = 0
    while i < len(lines):
        m = STRUCT_RE.match(lines[i])
        if not m:
            i += 1
            continue
        name, start = m.group(1), i
        depth, fields = 0, []
        j = i
        while j < len(lines):
            code = strip_comment(lines[j])
            if depth == 1 and j > start:
                f = FIELD_RE.match(code)
                if (f and f.group("name") not in NOT_FIELD_NAMES
                        and not re.match(r"\s*(enum|struct|class|using|return)\b", code)):
                    fields.append((f.group("name"), f.group("type").strip(), j + 1))
            depth += code.count("{") - code.count("}")
            if depth == 0 and j > start:
                break
            j += 1
        for field, ftype, lineno in fields:
            yield name, field, ftype, lineno, (start + 1, j + 1)
        i = j + 1


def positional_args(text):
    """Top-level comma-separated arguments of a brace initializer body."""
    args, depth, cur = [], 0, ""
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            args.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        args.append(cur.strip())
    return args


def positionally_assigned(texts, struct, fields):
    """Fields of `struct` filled by a positional `struct{a, b}` anywhere."""
    pattern = re.compile(r"\b%s\s*\{([^{};]*)\}" % re.escape(struct))
    count = 0
    for lines in texts.values():
        for line in lines:
            for m in pattern.finditer(strip_comment(line)):
                args = positional_args(m.group(1))
                if args and not any(a.startswith(".") for a in args):
                    count = max(count, len(args))
    return set(fields[:count])


def main():
    texts = {path: path.read_text(errors="replace").splitlines() for path in source_files()}
    fields = []
    for path, lines in texts.items():
        if path.suffix == ".hpp" and path.is_relative_to(ROOT / "src"):
            fields.extend((path,) + f for f in parse_configs(path, lines))

    leaves = [f for f in fields if not re.search(r"Config$", f[3].split()[-1])]
    nested = len(fields) - len(leaves)
    structs = {f[1] for f in fields}

    positional = set()
    for struct in structs:
        order = [f[2] for f in fields if f[1] == struct]
        positional |= {(struct, f) for f in positionally_assigned(texts, struct, order)}

    unset = []
    for path, struct, field, _, lineno, (body_lo, body_hi) in leaves:
        if (struct, field) in positional:
            continue
        pattern = re.compile(
            r"\.%s\s*(=(?!=)|\[|\.(push_back|emplace\w*|insert)\s*\()" % re.escape(field))
        assigned = False
        for other, lines in texts.items():
            for n, line in enumerate(lines, 1):
                if other == path and body_lo <= n <= body_hi:
                    continue
                if pattern.search(strip_comment(line)):
                    assigned = True
                    break
            if assigned:
                break
        if not assigned:
            unset.append((struct, field, path.relative_to(ROOT), lineno))

    print(f"config lint: {len(structs)} *Config structs, {len(leaves)} leaf fields "
          f"(+{nested} nested configs); {len(unset)} never assigned; "
          f"{len(leaves) - len(unset)} leaf fields after removing them")
    for struct, field, rel, lineno in unset:
        print(f"  {struct}::{field}  ({rel}:{lineno})")
    if unset:
        print("config lint: FAIL — make each field above a named constexpr "
              "next to its use, or set it from a bench, example or test")
        return 1
    statics = [(path.relative_to(ROOT), n, line.strip())
               for path, lines in texts.items()
               if path.suffix != ".py" and path.is_relative_to(ROOT / "src")
               for n, line in enumerate(lines, 1)
               if MUTABLE_STATIC_RE.match(strip_comment(line))]
    for rel, n, line in statics:
        print(f"  mutable static: {line}  ({rel}:{n})")
    if statics:
        print("config lint: FAIL — draw ids from sim::Simulator::next_id or keep the "
              "state in an object of the world")
        return 1
    print("config lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
