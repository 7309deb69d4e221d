#!/usr/bin/env python3
"""Repo-specific determinism linter.

The repo's headline guarantees -- bitwise-identical reports at any
thread count, byte-stable golden files, idempotent content-hash job ids
-- depend on invariants no general-purpose tool checks. This linter
enforces them statically, as a tier-1 ctest and a CI gate:

  rand-source          No ambient nondeterminism sources (rand, srand,
                       std::random_device, time(), gettimeofday, clock,
                       any <chrono> ::now() read) anywhere in src/
                       outside the seeded RNG (src/sim/rng.*). All
                       randomness must flow from Rng's seed substreams.

  unordered-iteration  No std::unordered_map / std::unordered_set in
                       the serialization/report paths (util/json,
                       analysis/{campaign,reference,result_json,
                       export}, serve/service, stats/*): hash-bucket order is
                       implementation-defined, and any iteration there
                       can reach output bytes. Ordered containers keep
                       goldens stable by construction.

  double-format        No raw double formatting (printf %e/%f/%g,
                       setprecision/precision(), std::fixed /
                       std::scientific / std::hexfloat) in those same
                       paths: every double that reaches output bytes
                       must go through util/json formatDouble(), the
                       single shortest-round-trip implementation the
                       goldens are pinned to.

  naked-mutex          No raw std::mutex / std::condition_variable (or
                       lock_guard/unique_lock/scoped_lock over them)
                       anywhere in src/ outside
                       src/util/thread_annotations.h: shared state must
                       use the CAPABILITY-annotated util::Mutex wrapper
                       so Clang Thread Safety Analysis can prove the
                       locking discipline at compile time.

  wall-clock           No std::chrono::{system,steady,high_resolution}
                       _clock anywhere in src/ outside src/obs/ (the
                       metrics subsystem's sanctioned clock seam,
                       src/obs/clock.h). Time must never be able to
                       reach simulation results; confining the clock
                       types to one audited directory is what makes
                       the metrics layer *provably* inert. bench/ and
                       examples/ sit outside the scanned tree and may
                       read clocks freely.

Escape hatch: a finding on line N is suppressed by an inline comment
`// lint:allow(<rule>) <reason>` on line N or N-1. The reason is
mandatory -- a bare allow is itself a finding (rule `allow-format`).

Exit status: 0 when clean, 1 when any finding survives, 2 on usage
errors. `--json FILE` additionally writes machine-readable findings:
`{"findings": [{"file", "line", "rule", "message", "snippet"}, ...]}`.

Usage:
  determinism_lint.py                   # lint the repo tree
  determinism_lint.py --root DIR        # explicit repo root
  determinism_lint.py --check-file F..  # fixture mode: every rule, no
                                        # path scoping (for the tests)
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Iterator, NamedTuple

# --- Rule table -------------------------------------------------------

# Paths whose iteration order / float formatting reaches output bytes.
SERIALIZATION_PATHS = (
    "src/util/json.",
    "src/analysis/campaign.",
    "src/analysis/reference.",
    "src/analysis/result_json.",
    "src/analysis/export.",
    "src/serve/service.",
    "src/stats/",
)

# The sanctioned homes of the primitives each rule forbids elsewhere.
RNG_HOME = ("src/sim/rng.",)
MUTEX_HOME = ("src/util/thread_annotations.h",)
OBS_HOME = ("src/obs/",)


class Rule(NamedTuple):
    name: str
    pattern: re.Pattern
    message: str
    # Path prefixes the rule applies to (empty: all of src/).
    scope: tuple
    # Path prefixes exempt from the rule (the sanctioned home).
    exempt: tuple
    # Optional second pattern applied to the RAW line (before
    # comment/string stripping) -- needed for printf format strings,
    # which live inside string literals. It only fires when `pattern`
    # also matched the stripped line, so prose in comments/messages
    # can't trip it.
    raw_pattern: re.Pattern = None


RULES = [
    Rule(
        name="rand-source",
        pattern=re.compile(
            r"(?<![\w:])(?:std::)?(rand|srand|time|gettimeofday|clock)"
            r"\s*\("
            r"|std::random_device"
            r"|::now\s*\("
        ),
        message=(
            "ambient nondeterminism source; draw from the seeded Rng "
            "(src/sim/rng.h) so results replay bit-for-bit"
        ),
        scope=(),
        exempt=RNG_HOME,
    ),
    Rule(
        name="unordered-iteration",
        pattern=re.compile(r"std::unordered_(map|set|multimap|multiset)"),
        message=(
            "unordered container in a serialization/report path; "
            "hash-bucket order is implementation-defined and can reach "
            "output bytes -- use std::map / std::set"
        ),
        scope=SERIALIZATION_PATHS,
        exempt=(),
    ),
    Rule(
        name="double-format",
        pattern=re.compile(
            r"\bsetprecision\s*\("
            r"|\.precision\s*\("
            r"|std::(fixed|scientific|hexfloat|defaultfloat)\b"
        ),
        message=(
            "raw double formatting in a serialization/report path; "
            "route through util/json formatDouble() -- the one "
            "shortest-round-trip encoding the goldens are pinned to"
        ),
        scope=SERIALIZATION_PATHS,
        exempt=(),
    ),
    Rule(
        name="double-format",
        pattern=re.compile(r"\b(f|s|sn)?printf\s*\("),
        message=(
            "printf-family float formatting in a serialization/report "
            "path; route through util/json formatDouble() -- the one "
            "shortest-round-trip encoding the goldens are pinned to"
        ),
        scope=SERIALIZATION_PATHS,
        exempt=(),
        raw_pattern=re.compile(r"%[-+ #0]*[\d.*]*l?[efgEFG]"),
    ),
    Rule(
        name="wall-clock",
        pattern=re.compile(
            r"std::chrono::(system_clock|steady_clock|"
            r"high_resolution_clock)\b"
        ),
        message=(
            "wall-clock type outside src/obs/; read time through "
            "obs::monotonicNanos() (src/obs/clock.h) -- one audited "
            "seam is what keeps metrics provably inert w.r.t. "
            "simulation output"
        ),
        scope=(),
        exempt=OBS_HOME,
    ),
    Rule(
        name="naked-mutex",
        pattern=re.compile(
            r"std::(mutex|recursive_mutex|timed_mutex|shared_mutex|"
            r"condition_variable(_any)?|lock_guard|unique_lock|"
            r"scoped_lock)\b"
        ),
        message=(
            "raw synchronization primitive; use the annotated "
            "util::Mutex / util::CondVar wrappers "
            "(src/util/thread_annotations.h) so Clang Thread Safety "
            "Analysis can check the locking discipline"
        ),
        scope=(),
        exempt=MUTEX_HOME,
    ),
]

RULE_NAMES = {rule.name for rule in RULES} | {"allow-format"}

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)\s*(\S.*)?$")


class Finding(NamedTuple):
    file: str
    line: int
    rule: str
    message: str
    snippet: str


# --- Comment/string stripping ----------------------------------------
#
# Rules match code, not prose: a doc comment explaining why std::mutex
# is forbidden must not trip the naked-mutex rule. Strings are blanked
# too (an error message quoting "rand()" is not a call). lint:allow
# markers are read from the raw lines before stripping.


def strip_comments(lines: list) -> list:
    stripped = []
    in_block = False
    for raw in lines:
        out = []
        i = 0
        n = len(raw)
        while i < n:
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            c = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if c == "/" and nxt == "/":
                break
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if c == '"' or c == "'":
                quote = c
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        i += 1
                        break
                    i += 1
                out.append(quote + quote)  # keep columns roughly stable
                continue
            out.append(c)
            i += 1
        stripped.append("".join(out))
    return stripped


# --- Scanning ---------------------------------------------------------


def allow_markers(lines: list) -> dict:
    """Line number -> set of allowed rules; bad markers -> findings."""
    allowed = {}
    bad = []
    for lineno, raw in enumerate(lines, start=1):
        m = ALLOW_RE.search(raw)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2)
        if rule not in RULE_NAMES or not reason:
            bad.append((lineno, rule, raw.strip()))
            continue
        allowed.setdefault(lineno, set()).add(rule)
    return allowed, bad


def applies(rule: Rule, rel: str, fixture_mode: bool) -> bool:
    if fixture_mode:
        return True
    if any(rel.startswith(prefix) for prefix in rule.exempt):
        return False
    if rule.scope and not any(
        rel.startswith(prefix) for prefix in rule.scope
    ):
        return False
    return True


def scan_file(path: str, rel: str, fixture_mode: bool) -> Iterator[Finding]:
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as err:
        yield Finding(rel, 0, "io-error", str(err), "")
        return

    allowed, bad_markers = allow_markers(lines)
    for lineno, rule, snippet in bad_markers:
        yield Finding(
            rel,
            lineno,
            "allow-format",
            "malformed lint:allow -- expected "
            "`// lint:allow(<rule>) <reason>` with a known rule and a "
            "non-empty reason",
            snippet,
        )

    code = strip_comments(lines)
    for rule in RULES:
        if not applies(rule, rel, fixture_mode):
            continue
        for lineno, line in enumerate(code, start=1):
            if not rule.pattern.search(line):
                continue
            if rule.raw_pattern and not rule.raw_pattern.search(
                lines[lineno - 1]
            ):
                continue
            if rule.name in allowed.get(lineno, ()) or rule.name in allowed.get(
                lineno - 1, ()
            ):
                continue
            yield Finding(
                rel, lineno, rule.name, rule.message, lines[lineno - 1].strip()
            )


def tree_files(root: str) -> Iterator[str]:
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith((".h", ".cc")):
                yield os.path.join(dirpath, name)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="determinism_lint.py",
        description="repo-specific determinism linter (see file docstring)",
    )
    parser.add_argument(
        "--root",
        default=os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
        ),
        help="repository root (default: inferred from the script path)",
    )
    parser.add_argument(
        "--json", metavar="FILE", help="write machine-readable findings"
    )
    parser.add_argument(
        "--check-file",
        nargs="+",
        metavar="FILE",
        help="fixture mode: lint exactly these files, every rule, "
        "no path scoping",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-finding output"
    )
    args = parser.parse_args(argv)

    findings = []
    if args.check_file:
        for path in args.check_file:
            if not os.path.exists(path):
                print(f"determinism_lint: no such file: {path}",
                      file=sys.stderr)
                return 2
            findings.extend(
                scan_file(path, os.path.basename(path), fixture_mode=True)
            )
    else:
        root = args.root
        if not os.path.isdir(os.path.join(root, "src")):
            print(
                f"determinism_lint: {root} has no src/ directory "
                "(pass --root)",
                file=sys.stderr,
            )
            return 2
        for path in tree_files(root):
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            findings.extend(scan_file(path, rel, fixture_mode=False))

    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    if not args.quiet:
        for f in findings:
            print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
            if f.snippet:
                print(f"    {f.snippet}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump(
                {"findings": [f._asdict() for f in findings]},
                out,
                indent=2,
            )
            out.write("\n")
    summary = (
        "determinism_lint: clean"
        if not findings
        else f"determinism_lint: {len(findings)} finding(s)"
    )
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
