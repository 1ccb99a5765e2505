#!/usr/bin/env python3
"""Project-specific determinism linter for the emit/serialize layers.

The pipeline's headline guarantee is byte-identical output across thread
counts, live-vs-batch, topology and restart (docs/ARCHITECTURE.md,
"Determinism contract").  The end-to-end equality tests enforce it empirically; this
linter enforces the *source patterns* that historically break it:

  D001 unordered-iteration
      Range-for (or explicit .begin()) over a container declared as
      std::unordered_map/set/multimap/multiset in the same file.  Hash-table
      iteration order is implementation- and seed-dependent; on an emit or
      serialize path it silently varies output.  Iterating to *collect* keys
      that are sorted before use, or to fold into a commutative aggregate
      (count/sum/min/max), is legitimate — annotate those sites with the
      escape hatch below.

  D002 banned-source
      Calls that read ambient nondeterminism: rand()/srand(), time(),
      clock(), gettimeofday(), std::chrono::system_clock,
      std::random_device.  Monotonic steady_clock is allowed (it feeds
      write-only metrics, never output).  Files that legitimately stamp
      wall-clock (metrics export) are whitelisted in D002_WHITELIST.

  D003 float-text-format
      Floats crossing an output boundary as text: printf-family float
      conversions (%f/%e/%g/%a) or std::to_string on a float-typed
      expression.  docs/FORMATS.md mandates the bit-exact pattern —
      std::bit_cast<std::uint32_t>(f) — for floats on the wire; decimal
      formatting is locale- and rounding-mode-shaped.

Scope: src/jigsaw/, src/trace/, src/obs/ (the layers whose output is under
the byte-identity contract).  Simulator, PHY and CLI code is out of scope.

Escape hatch — on the offending line or the line directly above:

    // lint-determinism: allow(<non-empty reason>)

The reason is mandatory; an empty allow() is itself an error (D000).

Exit status: 0 clean, 1 findings, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The layers under the byte-identity contract.
DEFAULT_SCOPE = ("src/jigsaw", "src/trace", "src/obs")

# Files allowed to read wall-clock/entropy (D002 only): the metrics export
# layer stamps snapshots, and its values are explicitly excluded from the
# byte-identity contract (pinned by MetricsDeterminism in pipeline_test.cc).
D002_WHITELIST = {
    "src/obs/export.cc",
    "src/obs/metrics.cc",
}

ALLOW_RE = re.compile(r"//\s*lint-determinism:\s*allow\((?P<reason>[^)]*)\)")

UNORDERED_DECL_RE = re.compile(
    r"(?<![\w<])std::unordered_(?:map|set|multimap|multiset)\s*<")
DECL_NAME_AFTER_RE = re.compile(r"\s*([A-Za-z_]\w*)\s*(?:;|=|\{|\()")

RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*(?P<range>[^)]+)\)")
TRAILING_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*$")

BANNED_CALL_RE = re.compile(
    r"(?<![\w:])(?:rand|srand|time|clock|gettimeofday)\s*\(")
BANNED_NAME_RE = re.compile(
    r"std::chrono::system_clock|std::random_device")

PRINTF_FLOAT_RE = re.compile(r'"[^"]*%[-+ #0-9.*]*(?:l|L)?[aefgAEFG][^"]*"')
TO_STRING_RE = re.compile(r"std::to_string\s*\((?P<arg>[^()]*(?:\([^()]*\))?[^()]*)\)")
FLOAT_DECL_RE = re.compile(
    r"^\s*(?:static\s+|const\s+|constexpr\s+)*(?:float|double)\s+"
    r"([A-Za-z_]\w*)")
FLOAT_MEMBER_RE = re.compile(
    r"(?:float|double)\s+([A-Za-z_]\w*)\s*(?:;|=|\{)")


@dataclasses.dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _strip_comments_and_strings(line: str) -> str:
    """Blank out // comments and "..." literal bodies so declaration and call
    regexes don't match prose.  (Keeps the quote marks so PRINTF_FLOAT_RE,
    which runs on the raw line, is unaffected.)"""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return re.sub(r"//.*$", "", line)


def _allowed(lines: list[str], idx: int) -> str | None:
    """Return the allow() reason covering line idx (same line or line above),
    or None.  An empty reason returns the sentinel ''."""
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = ALLOW_RE.search(lines[probe])
        if m:
            return m.group("reason").strip()
    return None


def _declared_unordered(lines: list[str]) -> set[str]:
    """Names declared with an unordered container as the OUTERMOST type.

    Walks the balanced <...> template argument list so nested commas/angles
    (std::unordered_map<Key, std::vector<V>, Hash>) don't truncate the scan,
    and so std::vector<std::unordered_set<T>> members (ordered outer
    container) are NOT tracked — the lookbehind rejects matches nested
    inside another template's argument list on the same line."""
    names: set[str] = set()
    for raw in lines:
        code = _strip_comments_and_strings(raw)
        for m in UNORDERED_DECL_RE.finditer(code):
            depth = 1
            i = m.end()
            while i < len(code) and depth:
                if code[i] == "<":
                    depth += 1
                elif code[i] == ">":
                    depth -= 1
                i += 1
            if depth:
                continue  # declaration spans lines; outermost-type heuristic
            name = DECL_NAME_AFTER_RE.match(code, i)
            if name:
                names.add(name.group(1))
    return names


def _declared_floats(lines: list[str]) -> set[str]:
    names: set[str] = set()
    for raw in lines:
        code = _strip_comments_and_strings(raw)
        m = FLOAT_DECL_RE.match(code) or FLOAT_MEMBER_RE.search(code)
        if m:
            names.add(m.group(1))
    return names


def lint_text(rel_path: str, text: str) -> list[Finding]:
    """Lint one file's contents; rel_path is repo-relative (used for
    whitelists and reporting)."""
    lines = text.splitlines()
    findings: list[Finding] = []
    unordered = _declared_unordered(lines)
    floats = _declared_floats(lines)

    def emit(idx: int, rule: str, message: str) -> None:
        reason = _allowed(lines, idx)
        if reason is None:
            findings.append(Finding(rel_path, idx + 1, rule, message))
        elif not reason:
            findings.append(Finding(
                rel_path, idx + 1, "D000",
                "empty lint-determinism allow(): a reason is mandatory"))

    for idx, raw in enumerate(lines):
        code = _strip_comments_and_strings(raw)

        # --- D001: iteration over unordered containers -------------------
        for m in RANGE_FOR_RE.finditer(code):
            expr = m.group("range").strip()
            ident = TRAILING_IDENT_RE.search(expr)
            if ident and ident.group(1) in unordered:
                emit(idx, "D001",
                     f"range-for over unordered container '{ident.group(1)}': "
                     "hash order is not deterministic on emit paths "
                     "(sort collected keys, or allow() with rationale)")
        for name in unordered:
            # (?<![\w.>]) so member access through another object
            # (report.pairs.begin()) doesn't alias a tracked local name.
            if re.search(rf"(?<![\w.>]){re.escape(name)}\s*\.\s*begin\s*\(",
                         code):
                emit(idx, "D001",
                     f"explicit iteration over unordered container '{name}'")

        # --- D002: ambient nondeterminism sources ------------------------
        if rel_path not in D002_WHITELIST:
            m = BANNED_CALL_RE.search(code) or BANNED_NAME_RE.search(code)
            if m:
                emit(idx, "D002",
                     f"banned nondeterminism source '{m.group(0).rstrip('(').strip()}' "
                     "(wall-clock/entropy must not shape pipeline output)")

        # --- D003: floats formatted as text ------------------------------
        if PRINTF_FLOAT_RE.search(raw):
            emit(idx, "D003",
                 "printf-style float conversion: floats cross output "
                 "boundaries via std::bit_cast<std::uint32_t> (FORMATS.md), "
                 "not decimal text")
        for m in TO_STRING_RE.finditer(code):
            arg = m.group("arg")
            arg_idents = set(re.findall(r"[A-Za-z_]\w*", arg))
            if ("float" in arg_idents or "double" in arg_idents
                    or arg_idents & floats):
                emit(idx, "D003",
                     f"std::to_string on float-typed expression '{arg.strip()}'"
                     ": use the bit-exact pattern from FORMATS.md")

    return findings


def lint_file(path: str) -> list[Finding]:
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT).replace(os.sep, "/")
    with open(path, encoding="utf-8") as fh:
        return lint_text(rel, fh.read())


def collect_paths(roots: list[str]) -> list[str]:
    out = []
    for root in roots:
        if os.path.isfile(root):
            out.append(root)
            continue
        for dirpath, _, files in os.walk(root):
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".hpp", ".cpp")):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files/dirs to lint (default: the contract scope "
                             f"{', '.join(DEFAULT_SCOPE)})")
    args = parser.parse_args()

    roots = args.paths or [os.path.join(REPO_ROOT, d) for d in DEFAULT_SCOPE]
    for root in roots:
        if not os.path.exists(root):
            print(f"lint_determinism: no such path: {root}", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    for path in collect_paths(roots):
        findings.extend(lint_file(path))

    for f in findings:
        print(f)
    if findings:
        print(f"lint_determinism: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_determinism: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
