#!/usr/bin/env python3
"""pimtc project-invariant linter (stdlib only).

Enforces repo-specific invariants that no general-purpose tool knows about
(see DESIGN.md "Static analysis & correctness tooling"):

  determinism      src/ must not spawn raw std::thread, detach anything, or
                   draw entropy outside the blessed wrappers: all
                   parallelism goes through common::ThreadPool and all
                   randomness through common/prng (seeded, splittable).
                   Banned: std::thread, .detach(, rand(, srand(, time(,
                   argless std::random_device.
  no-stdout        src/ is library code: it must not write to stdout
                   (std::cout / printf / puts); reports belong to the
                   caller.  fprintf/snprintf are fine.
  named-phase      every modeled-time charge in src/pim/ must be attributed
                   to a named PhaseTimes phase — passing nullptr as the
                   phase drops simulated time on the floor.
  memory-budget    the DPU memory budget literals (64 MiB MRAM, 64 KiB
                   WRAM, 24 KiB IRAM) may appear only in pim/config.hpp;
                   everyone else must consume PimSystemConfig / tc::layout
                   so a future device bump happens in exactly one place.

Waivers: append `// pimtc-lint: allow(<rule>) -- <why>` to the offending
line (or the line above it).  The justification text is mandatory.

Exit status: 0 clean, 1 violations (one `file:line: [rule] message` per
finding), 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

RULES = ("determinism", "no-stdout", "named-phase", "memory-budget")

# Files that implement the blessed wrappers themselves.
DETERMINISM_ALLOWED = (
    "src/common/thread_pool.hpp",
    "src/common/thread_pool.cpp",
    "src/common/prng.hpp",
    "src/common/prng.cpp",
)
MEMORY_BUDGET_ALLOWED = ("src/pim/config.hpp",)

WAIVER_RE = re.compile(
    r"//\s*pimtc-lint:\s*allow\((?P<rules>[\w,\s-]+)\)\s*(--|:)\s*\S")

DETERMINISM_RE = re.compile(
    r"std::thread\b"
    r"|\.detach\s*\("
    r"|\b(?:std::)?s?rand\s*\("
    r"|\b(?:std::)?time\s*\("
    r"|std::random_device\b")
STDOUT_RE = re.compile(r"std::cout\b|\b(?:std::)?printf\s*\(|\bputs\s*\(")
NAMED_PHASE_RE = re.compile(r"\bcharge_\w+\s*\([^;]*\bnullptr\b")
MEMORY_BUDGET_RE = re.compile(
    r"\b64\s*u?ll?\s*<<\s*20\b"   # 64 MiB MRAM
    r"|\b64\s*u?l{0,2}\s*<<\s*10\b"  # 64 KiB WRAM
    r"|\b24\s*u?l{0,2}\s*<<\s*10\b"  # 24 KiB IRAM
    r"|\b67108864\b|\b65536\b|\b24576\b")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines so
    line numbers survive.  Waivers must be extracted *before* this runs."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":  # block comment
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":  # string / char literal
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                if i < n and text[i] == "\n":
                    out.append("\n")
                i += 1
            out.append(quote)
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def waived_rules(raw_lines: list[str], lineno: int) -> set[str]:
    """Rules waived for 1-based line `lineno` (same line or the line above)."""
    waived: set[str] = set()
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(raw_lines):
            m = WAIVER_RE.search(raw_lines[idx])
            if m:
                waived.update(r.strip() for r in m.group("rules").split(","))
    return waived


def lint_file(path: pathlib.Path, rel: str) -> list[tuple[str, int, str, str]]:
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    code_lines = strip_comments_and_strings(raw).splitlines()

    checks: list[tuple[str, re.Pattern[str], str]] = []
    if not rel.startswith(DETERMINISM_ALLOWED):
        checks.append((
            "determinism", DETERMINISM_RE,
            "raw threads / entropy in library code (use common::ThreadPool "
            "or common/prng)"))
    checks.append((
        "no-stdout", STDOUT_RE,
        "stdout write in library code (return data; let the caller print)"))
    if rel.startswith("src/pim/"):
        checks.append((
            "named-phase", NAMED_PHASE_RE,
            "modeled-time charge with a nullptr phase (attribute it to a "
            "named PhaseTimes member)"))
    if not rel.startswith(MEMORY_BUDGET_ALLOWED):
        checks.append((
            "memory-budget", MEMORY_BUDGET_RE,
            "hardcoded DPU memory budget (consume PimSystemConfig / "
            "tc::layout instead)"))

    findings = []
    for lineno, line in enumerate(code_lines, start=1):
        for rule, pattern, message in checks:
            if pattern.search(line) and rule not in waived_rules(
                    raw_lines, lineno):
                findings.append((rel, lineno, rule, message))
    return findings


def lint_tree(root: pathlib.Path) -> list[tuple[str, int, str, str]]:
    findings = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".hpp", ".cpp"):
            rel = path.relative_to(root).as_posix()
            findings.extend(lint_file(path, rel))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=".",
                        help="repo root (default: cwd)")
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root)
    if not (root / "src").is_dir():
        print(f"pimtc_lint: no src/ under '{root}'", file=sys.stderr)
        return 2
    findings = lint_tree(root)
    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"pimtc_lint: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
