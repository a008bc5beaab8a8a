#!/usr/bin/env python3
"""Lock-discipline lint for the l2r tree (run by CI's lint step).

Six checks, all textual (no compiler needed), tuned to this repo's
conventions:

1. src/: no raw ``std::mutex`` / ``std::condition_variable`` members —
   shared state must use the annotated ``l2r::Mutex`` / ``l2r::CondVar``
   capability types from common/mutex.h so Clang's -Wthread-safety can
   see every acquisition. The wrapper itself is exempted with a
   ``// lint:allow-raw-mutex`` marker on the member's line.

2. src/: every ``Mutex`` / ``SharedMutex`` member declaration must have
   a visible relationship with the analysis — either some
   ``L2R_GUARDED_BY(that mutex)`` / ``L2R_REQUIRES`` / ``L2R_ACQUIRE``
   / ``L2R_EXCLUDES`` mention of it (shared variants included) elsewhere
   in the same file, or a justification marker
   ``// lint:standalone-mutex(reason)`` on its line (for mutexes that
   guard an effect rather than data, e.g. log interleaving).

3. src/: no *naked* ``.load()`` / ``.store(x)`` on atomics — every atomic
   access spells its ``std::memory_order`` so the ordering contract is a
   reviewed decision, not a silent seq_cst default (see
   common/thread_annotations.h for the reference rationale).

4. src/: every atomic access to an epoch field (identifier containing
   ``epoch``) must carry a documented memory-order rationale — a comment
   on the same line or within the preceding few lines mentioning
   acquire / release / relaxed / seq_cst or "order". Epoch numbers are
   the dynamic world's publication protocol (world/update_channel.h):
   an epoch load pairing with the wrong store order silently serves
   stale bytes, so the pairing must be written down where the access is.

5. src/: every atomic access to a sequence-counter field (identifier
   containing ``seq``, e.g. a sequence lock's version counter or a
   payload member it publishes) must carry a documented memory-order
   rationale, exactly like the epoch rule, following the conventions in
   common/thread_annotations.h. Sequence-lock correctness lives entirely
   in the fence/order pairing (Boehm, MSPC'12): a reader validating with
   the wrong order admits torn payloads silently, so the pairing must be
   written down where the access is. ``seq_cst`` in a spelled order does
   not trip this (word-boundary match on ``seq``).

6. tests/: no ``sleep_for`` — timing tests must use the Clock seam
   (serve/clock.h) or observable-state spin loops; real sleeps make the
   suite slow and flaky in equal measure.

Exit status: 0 clean, 1 findings (one line each), 2 usage error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

ALLOW_RAW = "lint:allow-raw-mutex"
STANDALONE = "lint:standalone-mutex"

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|condition_variable"
    r"|condition_variable_any)\s+\w+\s*;"
)
# A `Mutex foo;` / `mutable SharedMutex foo;` member or local declaration.
MUTEX_DECL_RE = re.compile(r"\b(?:mutable\s+)?(?:Shared)?Mutex\s+(\w+)\s*;")
ANNOTATION_RE = re.compile(
    r"\bL2R_(GUARDED_BY|PT_GUARDED_BY|REQUIRES(?:_SHARED)?"
    r"|ACQUIRE(?:_SHARED)?|RELEASE(?:_SHARED)?|TRY_ACQUIRE(?:_SHARED)?"
    r"|EXCLUDES|RETURN_CAPABILITY|ASSERT_CAPABILITY)\s*\(([^)]*)\)"
)
NAKED_LOAD_RE = re.compile(r"\.\s*load\s*\(\s*\)")
NAKED_STORE_RE = re.compile(r"\.\s*store\s*\(\s*[^,()]*(\([^()]*\)[^,()]*)?\)\s*;")
SLEEP_RE = re.compile(r"\bsleep_for\s*\(")
# An atomic access whose object identifier names an epoch (the dynamic
# world's publication counters): epoch_.load(...), floor epoch tables
# indexed as last_epoch[p].store(...), fetch_add bumps, CAS maxes.
EPOCH_ATOMIC_RE = re.compile(
    r"\b\w*[Ee]poch\w*(?:\s*\[[^\]]*\])?\s*\.\s*"
    r"(load|store|exchange|fetch_add|fetch_sub|compare_exchange_\w+)\s*\("
)
# An atomic access whose object identifier names a sequence counter or a
# payload field it publishes: seq_.load(...), slot.seq.store(...),
# seq_table[i].fetch_add(...).
SEQ_ATOMIC_RE = re.compile(
    r"\b\w*[Ss]eq\w*(?:\s*\[[^\]]*\])?\s*\.\s*"
    r"(load|store|exchange|fetch_add|fetch_sub|compare_exchange_\w+)\s*\("
)
# What counts as a documented order rationale near the access.
ORDER_COMMENT_RE = re.compile(
    r"acquire|release|relaxed|seq_cst|order", re.IGNORECASE
)
# How many raw lines above the access the rationale may sit.
EPOCH_COMMENT_WINDOW = 6


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments (and string literals), preserving
    line structure so reported line numbers stay valid."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("\\\\")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def _has_order_comment(raw_lines: list[str], code_lines: list[str],
                       idx: int) -> bool:
    """True when a comment on line `idx` or within the preceding window
    states the ordering rationale. Only comment text counts: the spelled
    std::memory_order argument in the code is check 3's business, the
    epoch rule wants the *pairing* written down."""
    lo = max(0, idx - EPOCH_COMMENT_WINDOW)
    for j in range(lo, idx + 1):
        raw = raw_lines[j] if j < len(raw_lines) else ""
        code = code_lines[j] if j < len(code_lines) else ""
        if "//" in raw:
            comment = raw[raw.index("//"):]
        elif not code.strip():
            # Inside a /* */ block (the stripped line is blank): the raw
            # line is all comment.
            comment = raw
        else:
            continue
        if ORDER_COMMENT_RE.search(comment):
            return True
    return False


def lint_src_file(path: Path) -> list[str]:
    raw_text = path.read_text(encoding="utf-8")
    raw_lines = raw_text.splitlines()
    code = strip_comments(raw_text)
    code_lines = code.splitlines()
    rel = path.relative_to(REPO)
    findings: list[str] = []

    # Which mutex names appear inside some annotation's argument list
    # anywhere in this file (handles `mu`, `shard.mu`, `flight.mu` ...).
    annotated_names: set[str] = set()
    for m in ANNOTATION_RE.finditer(code):
        for tok in re.findall(r"\w+", m.group(2)):
            annotated_names.add(tok)

    for idx, line in enumerate(code_lines):
        lineno = idx + 1
        raw_line = raw_lines[idx] if idx < len(raw_lines) else ""

        if RAW_MUTEX_RE.search(line) and ALLOW_RAW not in raw_line:
            findings.append(
                f"{rel}:{lineno}: raw std:: synchronization member — use "
                f"l2r::Mutex / l2r::CondVar (common/mutex.h) so "
                f"-Wthread-safety sees it, or mark `// {ALLOW_RAW}`"
            )

        decl = MUTEX_DECL_RE.search(line)
        if decl and STANDALONE not in raw_line:
            name = decl.group(1)
            if name not in annotated_names:
                findings.append(
                    f"{rel}:{lineno}: Mutex `{name}` has no "
                    f"L2R_GUARDED_BY/REQUIRES/ACQUIRE/EXCLUDES relationship "
                    f"in this file — annotate what it protects, or mark "
                    f"`// {STANDALONE}(reason)`"
                )

        if EPOCH_ATOMIC_RE.search(line):
            if not _has_order_comment(raw_lines, code_lines, idx):
                findings.append(
                    f"{rel}:{lineno}: atomic epoch access without a "
                    f"documented memory-order rationale — comment the "
                    f"acquire/release/relaxed pairing on or just above "
                    f"the access (see world/update_channel.h)"
                )

        if SEQ_ATOMIC_RE.search(line):
            if not _has_order_comment(raw_lines, code_lines, idx):
                findings.append(
                    f"{rel}:{lineno}: atomic access to a seq-named field "
                    f"without a documented memory-order rationale — "
                    f"sequence-lock correctness is its fence/order "
                    f"pairing; comment it on or just above the access "
                    f"(see common/thread_annotations.h)"
                )

        if NAKED_LOAD_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: naked atomic .load() — spell the "
                f"std::memory_order (see common/thread_annotations.h for the "
                f"ordering rationale conventions)"
            )
        if NAKED_STORE_RE.search(line):
            m = NAKED_STORE_RE.search(line)
            if m and "memory_order" not in m.group(0):
                findings.append(
                    f"{rel}:{lineno}: naked atomic .store(value) — spell "
                    f"the std::memory_order"
                )

    return findings


def lint_test_file(path: Path) -> list[str]:
    rel = path.relative_to(REPO)
    code = strip_comments(path.read_text(encoding="utf-8"))
    findings = []
    for idx, line in enumerate(code.splitlines()):
        if SLEEP_RE.search(line):
            findings.append(
                f"{rel}:{idx + 1}: sleep_for in a test — drive timing "
                f"through the Clock seam (serve/clock.h) or spin on "
                f"observable state with yield()"
            )
    return findings


def main() -> int:
    if len(sys.argv) > 1:
        print(f"usage: {sys.argv[0]} (no arguments; lints src/ and tests/)",
              file=sys.stderr)
        return 2
    findings: list[str] = []
    src = REPO / "src"
    tests = REPO / "tests"
    if not src.is_dir() or not tests.is_dir():
        print("lint_concurrency: src/ or tests/ missing — run from the "
              "repo (script resolves paths relative to itself)",
              file=sys.stderr)
        return 2
    for path in sorted(src.rglob("*.h")) + sorted(src.rglob("*.cc")):
        findings.extend(lint_src_file(path))
    for path in sorted(tests.rglob("*.h")) + sorted(tests.rglob("*.cc")):
        findings.extend(lint_test_file(path))
    for f in findings:
        print(f)
    if findings:
        print(f"lint_concurrency: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print("lint_concurrency: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
