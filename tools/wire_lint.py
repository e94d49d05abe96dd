#!/usr/bin/env python3
"""Bounds-check lint for the hand-written LetDelta codec.

Every frame but LetDelta is encoded, decoded and size-checked from one
fields() description in src/domain/wire.cpp, whose Reader checks each count
against the payload before it allocates. The stateful LetDelta codec is
written by hand, so this lint keeps one rule over it: a read_*/decode_*
function in the codec section of wire.cpp that allocates from a wire-supplied
count (resize, reserve, or a sized vector construction) must bounds-check
with require() before its first allocation.

Run as a ctest (`wire_lint`) and in CI. `--self-test` proves the lint can
fail: it re-runs the check on doctored copies of wire.cpp and asserts each
mutation is caught.
"""

import argparse
import pathlib
import re
import sys

SECTION_MARKER = "// --- Incremental LET codec"
# A function definition at column 0 whose name is on the defining line.
FUNC_DEF_RE = re.compile(r"^[\w:<>,&*\s]+?\b((?:read|decode)_\w+)\s*\(", re.M)
ALLOC_RE = re.compile(r"\.(?:resize|reserve)\(|std::vector<[^;>]*>\s+\w+\(\w")
BOUND_RE = re.compile(r"\brequire\(")


def codec_section(wire_cpp):
    at = wire_cpp.find(SECTION_MARKER)
    return wire_cpp[at:] if at >= 0 else ""


def run_lint(wire_cpp):
    section = codec_section(wire_cpp)
    if not section:
        return [f"wire.cpp: codec section marker '{SECTION_MARKER}' not found"]
    defs = list(FUNC_DEF_RE.finditer(section))
    if not defs:
        return ["wire.cpp: no read_*/decode_* function found in the codec section"]
    errors = []
    for i, m in enumerate(defs):
        end = defs[i + 1].start() if i + 1 < len(defs) else len(section)
        body = section[m.end():end]
        alloc = ALLOC_RE.search(body)
        if alloc is None:
            continue
        bound = BOUND_RE.search(body)
        if bound is None or bound.start() > alloc.start():
            errors.append(f"{m.group(1)}: allocates ({alloc.group(0).strip()}) before "
                          f"any bounds check (require())")
    return errors


def self_test(root):
    """Mutate a pristine wire.cpp one way at a time; each must be caught."""
    pristine = (pathlib.Path(root) / "src/domain/wire.cpp").read_text()
    base_errors = run_lint(pristine)
    if base_errors:
        print("self-test needs a clean tree, but the lint already fails:")
        for e in base_errors:
            print("  " + e)
        return 1

    checks = 'r.require(num_nodes <= r.remaining(), "node count exceeds payload");'
    mutations = {
        "bounds checks removed from decode_let_cached":
            pristine.replace(checks, "").replace(
                'r.require(num_parts <= r.remaining() / 2, "particle count exceeds payload");',
                ""),
        "unchecked allocation added":
            pristine + "\nstd::vector<int> read_evil(Reader& r) {\n"
            "  std::vector<int> v;\n  v.resize(r.get<std::uint32_t>());\n  return v;\n}\n",
        "sized construction before the check":
            pristine + "\nstd::vector<int> read_evil(Reader& r) {\n"
            "  std::vector<int> v(r.get<std::uint32_t>());\n"
            "  r.require(v.size() < 8, \"late\");\n  return v;\n}\n",
    }
    if checks not in pristine:
        print("FAIL: self-test anchor not found in decode_let_cached")
        return 1

    failed = 0
    for label, source in mutations.items():
        errors = run_lint(source)
        if errors:
            print(f"ok: '{label}' caught (first: {errors[0]})")
        else:
            print(f"FAIL: mutation '{label}' was not caught")
            failed += 1
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the lint fails on doctored sources")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.root)

    errors = run_lint((pathlib.Path(args.root) / "src/domain/wire.cpp").read_text())
    if errors:
        print(f"wire_lint: {len(errors)} error(s)")
        for e in errors:
            print("  " + e)
        return 1
    print("wire_lint: every LetDelta decode helper bounds-checks before it allocates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
