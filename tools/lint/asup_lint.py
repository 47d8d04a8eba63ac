#!/usr/bin/env python3
"""asup_lint: determinism & locking lint for the asup sources.

The defense's core guarantee (paper Section 2.1) is that re-issuing a query
returns a bitwise-identical answer; nondeterministic answers are themselves
a side channel. This lint rejects the constructs that historically break
that guarantee, plus the lock-discipline convention of the threading layer.

Rules (all scoped to src/ unless noted):

  asup-banned-random       rand()/srand() and std::random_device: all
                           randomness must flow through the seeded asup::Rng
                           or the keyed DeterministicCoin.
  asup-banned-time         time()/clock()/gettimeofday(): wall-clock reads
                           in library logic break replay (timing belongs in
                           util/stopwatch via <chrono>). Also bans
                           std::chrono::system_clock: it is not monotonic
                           (NTP slews/steps corrupt latency measurements),
                           so every timing path must use the steady clock
                           that util/stopwatch wraps.
  asup-unordered-iteration deterministic paths only (src/asup/suppress/,
                           src/asup/engine/): iterating a std::unordered_map
                           or std::unordered_set observes hash-table order,
                           which varies across platforms/libstdc++ versions.
                           Canonicalize (sort) or use an ordered container.
  asup-manual-lock         .lock()/.unlock() calls: RAII guards only
                           (MutexLock/ReaderLock/WriterLock).
  asup-raw-mutex           std::mutex / std::shared_mutex / std::lock_guard
                           / std::unique_lock / std::shared_lock (and their
                           recursive/timed/scoped cousins) outside
                           src/asup/util/: all locking goes through the
                           capability-annotated wrappers in
                           util/annotated_mutex.h so Clang's
                           -Wthread-safety analysis sees every acquire and
                           every guarded access (DESIGN.md §14). The
                           wrappers themselves (src/asup/util/) are the one
                           place raw primitives may appear.
  asup-locked-requires     a method named *Locked asserts "caller holds the
                           mutex"; its declaration must say which one with
                           ASUP_REQUIRES / ASUP_REQUIRES_SHARED so the
                           analysis can enforce the precondition at every
                           call site. (Out-of-line Class::FooLocked
                           definitions are exempt — the attribute lives on
                           the in-class declaration.)
  asup-obs-macro           hot paths (src/asup/engine/, src/asup/suppress/)
                           must emit telemetry through the ASUP_METRIC_* /
                           ASUP_EVENT_* / ASUP_TRACE_* macros, never by
                           calling the obs registry, event log, or
                           watchtower directly (obs::MetricsRegistry,
                           obs::EmitEvent, obs::Install*/Installed*,
                           obs::EventLog, obs::Watchtower,
                           obs::ClientWindowTable). The macros compile to
                           nothing under ASUP_METRICS=OFF; a direct call
                           drags asup::obs symbols into the defense
                           libraries and breaks the compile-out contract
                           that tools/check_no_obs_symbols.sh enforces.
                           Trace *types* (obs::Stage, obs::ScopedStageTimer,
                           obs::ActiveTrace) stay allowed: they only appear
                           inside ASUP_METRICS_ENABLED blocks.
  asup-log-ratio-segment   log(x)/log(γ) segment-index arithmetic anywhere
                           but src/asup/suppress/segment.cc: the double
                           log-ratio lands a hair below the integer at
                           exact powers of γ (log(1000)/log(10) =
                           2.9999999999999996) and truncation reports the
                           segment below — the fig21 boundary-drift bug.
                           Segment indices come from
                           IndistinguishableSegment::IndexOf, which shares
                           the exact multiply loop with the segment
                           constructor.
  asup-posting-varbyte     src/asup/index/ outside block_codec.{h,cc}: the
                           varbyte primitives (AppendVarByte, ReadVarByte,
                           TryReadVarByte) must not touch posting payload
                           bytes anywhere but the block codec TU. Posting
                           payloads are group-varint *blocks*; a stray
                           scalar-varbyte read silently misparses them (or
                           reintroduces a second, divergent decoder). Go
                           through PostingList::Iterator / Decode() or the
                           blockcodec Encode/TryDecodeBlock entry points.
  asup-walk-docat          src/asup/engine/: no DocAt() call. The match
                           walk reads each match's id and length from the
                           index's flat per-local columns (LocalToId,
                           LengthAt); DocAt dereferences a 32-byte Document
                           per match, the cache miss those columns remove.
                           The one sanctioned call is MatchFreqReader's
                           term-map fallback for general trees.
  asup-record-once         src/asup/suppress/: a defended query's facts
                           are written once. Stages fill the context's
                           outcome record; only the recorder
                           (DefenseRecordProcessor, header class body and
                           out-of-line members) and the epoch migration
                           (DefendedEngine::MigrateTo) may contain
                           ASUP_EVENT_EMIT, ASUP_TRACE_NOTE, or a write to
                           a DefenseCounters field. A second writer is
                           how stats, metrics, notes and events came to
                           disagree. The cover search's internal notes
                           carry a suppression with a reason.
  asup-raw-assert          validation-critical paths (src/asup/index/,
                           src/asup/suppress/, src/asup/text/,
                           src/asup/engine/, src/asup/eval/): a raw
                           assert() compiles out in Release, so the check
                           it expresses silently vanishes from production
                           decoders exactly where untrusted bytes arrive
                           (the ReadVarByte out-of-bounds bug). Use
                           ASUP_CHECK (always on where it matters) or
                           ASUP_DCHECK (explicitly debug-only) from
                           util/check.h; static_assert is fine.

Suppressing a finding requires an inline justification on the same line or
on the preceding line:

    // NOLINT(asup-unordered-iteration): order canonicalized by sort below
    // NOLINTNEXTLINE(asup-banned-time): example code, not library logic

A NOLINT for an asup-* rule without a ': reason' is itself an error.

Exit status: 0 when clean, 1 with findings, 2 on usage errors.
"""

import argparse
import re
import sys
from pathlib import Path

DETERMINISTIC_SUBDIRS = ("asup/suppress", "asup/engine")
RAW_ASSERT_SUBDIRS = (
    "asup/index",
    "asup/suppress",
    "asup/text",
    "asup/engine",
    "asup/eval",
)

# assert( not preceded by an identifier character: matches the macro call
# but not static_assert( or FooAssert(.
RAW_ASSERT_RE = re.compile(r"(?<![\w])assert\s*\(")

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}()]*?>\s+(\w+)\s*[;={(]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*([^)]*)\)")
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|lock_guard|unique_lock|"
    r"shared_lock|scoped_lock)\b"
)
# A *Locked declaration/definition line: return-type tokens, then an
# optionally-qualified name ending in "Locked", then '('. The keyword
# lookahead rejects `return FooLocked(...)` call statements; member calls
# (`obj.FooLocked(`) never match because '.' is not a type-token character.
# Direct observability-plumbing calls that the ASUP_* macros wrap. Matching
# both the obs::-qualified and bare spellings catches `using namespace`
# escapes; the trace helper types (Stage, ScopedStageTimer, ActiveTrace)
# are deliberately absent — they are the sanctioned way to scope a span.
OBS_DIRECT_RE = re.compile(
    r"\b(?:obs::)?(?:EmitEvent|EventSinksInstalled|"
    r"Install(?:ed)?(?:EventLog|Watchtower)|MetricsRegistry)\b"
    r"|\bobs::(?:EventLog|Watchtower|ClientWindowTable)\b"
)
# A quotient of two log calls — log(x)/log(y), std::log, log2, log10, with
# arbitrary (possibly nested) arguments on the left as long as the '/' and
# the second log sit on the same line. Change-of-base arithmetic is how
# every log-ratio segment index has been written; there is no legitimate
# same-line log/log quotient in this codebase outside segment.cc.
LOG_RATIO_RE = re.compile(
    r"\b(?:std::)?log[210]*\s*\(.*?\)\s*/\s*(?:std::)?log[210]*\s*\(")
# The scalar varbyte primitives of the posting codec; outside the codec TU
# itself these must not appear anywhere in the index layer.
POSTING_VARBYTE_RE = re.compile(
    r"\b(?:AppendVarByte|TryReadVarByte|ReadVarByte)\s*\(")
# A Document lookup by local id, banned from the engine's match walk.
WALK_DOCAT_RE = re.compile(r"\bDocAt\s*\(")
# Per-query telemetry macros the recorder owns under src/asup/suppress/.
RECORD_MACRO_RE = re.compile(r"\bASUP_(?:EVENT_EMIT|TRACE_NOTE)\s*\(")
# The fields of struct DefenseCounters (read from processors.h).
COUNTERS_STRUCT_RE = re.compile(
    r"struct\s+DefenseCounters\s*\{(.*?)\n\};", re.S)
COUNTERS_FIELD_RE = re.compile(r"std::atomic<[^>]*>\s+(\w+)\s*\{")
# Column-0 openers of a top-level scope: an out-of-line member definition
# (`Type Class::Method(`), a class body, or any other definition.
MEMBER_DEF_RE = re.compile(r"^[A-Za-z_][^(;]*?\b(\w+::~?\w+)\s*\(")
CLASS_DEF_RE = re.compile(r"^(?:class|struct)\s+(\w+)\b[^;]*$")
RECORD_SCOPES = ("class DefenseRecordProcessor", "DefenseRecordProcessor::",
                 "DefendedEngine::MigrateTo")
LOCKED_DECL_RE = re.compile(
    r"^\s*(?!return\b|throw\b|co_return\b)"
    r"(?:[\w:<>,*&~\[\]]+\s+)+((?:\w+::)*\w*Locked)\s*\(")
NOLINT_RE = re.compile(r"NOLINT(?:NEXTLINE)?\(([^)]*)\)(:?)\s*(.*)")

BANNED_PATTERNS = (
    ("asup-banned-random", re.compile(r"(?<![\w:.])s?rand\s*\("),
     "rand()/srand() is nondeterministic across platforms; use asup::Rng"),
    ("asup-banned-random", re.compile(r"\bstd::random_device\b"),
     "std::random_device defeats seeded replay; use asup::Rng / Fork()"),
    ("asup-banned-time", re.compile(r"(?<![\w:.\"])(?:std::)?time\s*\("),
     "wall-clock time() breaks deterministic replay; use util/stopwatch"),
    ("asup-banned-time", re.compile(r"(?<![\w:.\"])(?:std::)?clock\s*\("),
     "clock() breaks deterministic replay; use util/stopwatch"),
    ("asup-banned-time", re.compile(r"\bgettimeofday\s*\("),
     "gettimeofday() breaks deterministic replay; use util/stopwatch"),
    ("asup-banned-time", re.compile(r"\b(?:std::)?chrono::system_clock\b"),
     "system_clock is not monotonic; time with util/stopwatch "
     "(steady_clock)"),
    ("asup-manual-lock", re.compile(r"\.\s*(?:lock|unlock)\s*\(\s*\)"),
     "manual lock()/unlock(); use an RAII guard"),
)


def strip_code_noise(line):
    """Removes string/char literals and // comments so prose never matches."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            out.append(quote)
        else:
            out.append(c)
        i += 1
    return "".join(out)


class Findings:
    def __init__(self):
        self.items = []

    def add(self, path, lineno, rule, message):
        self.items.append((path, lineno, rule, message))


def nolint_rules(raw_line, lineno, path, findings):
    """Returns the set of rules suppressed by a NOLINT comment on raw_line.

    An asup-* NOLINT without a reason is reported as its own finding.
    """
    match = NOLINT_RE.search(raw_line)
    if not match:
        return frozenset()
    rules = {r.strip() for r in match.group(1).split(",")}
    asup_rules = {r for r in rules if r.startswith("asup-")}
    if asup_rules and (match.group(2) != ":" or not match.group(3).strip()):
        findings.add(path, lineno, "asup-nolint-reason",
                     "NOLINT of an asup-* rule requires ': <reason>'")
    return frozenset(rules)


def collect_unordered_names(text):
    return set(UNORDERED_DECL_RE.findall(text))


def paired_header_text(path):
    if path.suffix == ".cc":
        header = path.with_suffix(".h")
        if header.exists():
            return header.read_text(encoding="utf-8")
    return ""


def counter_write_re(path):
    """Matches a write to a DefenseCounters field, or None without them.

    The fields are atomics, so a write is an atomic member call (fetch_*,
    store, exchange) on the field, or an operator applied to it through a
    `counters` object. The outcome record shares some field names but holds
    plain integers, so neither form matches a write to it.
    """
    header = path.parent / "processors.h"
    if not header.exists():
        return None
    struct = COUNTERS_STRUCT_RE.search(header.read_text(encoding="utf-8"))
    if not struct:
        return None
    fields = "|".join(COUNTERS_FIELD_RE.findall(struct.group(1)))
    return re.compile(
        r"\b(?:" + fields + r")\s*\.\s*"
        r"(?:fetch_\w+|store|exchange|compare_exchange_\w+)\s*\("
        r"|\bcounters\w*\s*(?:\.|->)\s*(?:" + fields + r")\b\s*"
        r"(?:\+\+|--|[-+|&^]?=(?!=))"
        r"|(?:\+\+|--)\s*\w*counters\w*\s*(?:\.|->)\s*(?:" + fields +
        r")\b")


def check_record_once(path, clean_lines, is_suppressed, rel, findings):
    """Per-query facts are written by the recorder and the migration only.

    Tracks the top-level scope each line sits in from column-0 openers:
    an out-of-line `Class::Method(` definition, a `class Name` body, or
    another definition (which ends any allowed scope).
    """
    writes = counter_write_re(path)
    scope = None
    for lineno, line in enumerate(clean_lines, 1):
        if line[:1] not in ("", " ", "\t", "}", "#", "/"):
            member = MEMBER_DEF_RE.match(line)
            klass = CLASS_DEF_RE.match(line)
            if klass:
                scope = "class " + klass.group(1)
            elif member:
                scope = member.group(1)
            else:
                scope = None
        allowed = scope is not None and any(
            scope == s or (s.endswith("::") and scope.startswith(s))
            for s in RECORD_SCOPES)
        if allowed:
            continue
        if (RECORD_MACRO_RE.search(line) or
                (writes is not None and writes.search(line))) and \
                not is_suppressed(lineno, "asup-record-once"):
            findings.add(
                rel, lineno, "asup-record-once",
                "per-query fact written outside the recorder; set the "
                "QueryContext outcome field and let "
                "DefenseRecordProcessor write stats, metrics, notes and "
                "events")


def check_locked_requires(clean_lines, is_suppressed, path, findings):
    """*Locked declarations must state their precondition via ASUP_REQUIRES.

    The old lint guessed at lock discipline from the function *body* (no
    guard construction inside *Locked). With the capability annotations of
    util/annotated_mutex.h the precondition is machine-checked by Clang, so
    the lint's job shrinks to making sure the annotation is actually there:
    a *Locked method whose declaration lacks ASUP_REQUIRES[_SHARED] silently
    opts out of the analysis. Out-of-line `Class::FooLocked` definitions are
    skipped — attributes belong on the in-class declaration.
    """
    for idx, line in enumerate(clean_lines):
        match = LOCKED_DECL_RE.search(line.rstrip())
        if not match:
            continue
        name = match.group(1)
        if "::" in name:
            continue  # out-of-line definition; declaration carries the
            # attribute
        # Gather the declaration up to its terminator: ';' for a pure
        # declaration, '{' for an inline definition (attributes precede
        # either). 12 lines is generous for one signature.
        span = []
        for j in range(idx, min(idx + 12, len(clean_lines))):
            decl_line = clean_lines[j]
            cut = len(decl_line)
            for terminator in ("{", ";"):
                pos = decl_line.find(terminator)
                if pos != -1:
                    cut = min(cut, pos)
            span.append(decl_line[:cut])
            if cut != len(decl_line):
                break
        declaration = " ".join(span)
        if "ASUP_REQUIRES" in declaration:  # matches _SHARED too
            continue
        if is_suppressed(idx + 1, "asup-locked-requires"):
            continue
        findings.add(
            path, idx + 1, "asup-locked-requires",
            f"{name}() asserts the caller holds a lock; declare which one "
            "with ASUP_REQUIRES(...) / ASUP_REQUIRES_SHARED(...)")


def lint_file(path, rel, findings):
    text = path.read_text(encoding="utf-8")
    raw_lines = text.splitlines()
    clean_lines = [strip_code_noise(l) for l in raw_lines]

    suppressed = {}
    for lineno, raw in enumerate(raw_lines, 1):
        rules = nolint_rules(raw, lineno, rel, findings)
        if not rules:
            continue
        target = lineno + 1 if "NOLINTNEXTLINE" in raw else lineno
        suppressed.setdefault(target, set()).update(rules)

    def is_suppressed(lineno, rule):
        rules = suppressed.get(lineno, ())
        return rule in rules or "*" in rules

    for lineno, line in enumerate(clean_lines, 1):
        for rule, pattern, message in BANNED_PATTERNS:
            if pattern.search(line) and not is_suppressed(lineno, rule):
                findings.add(rel, lineno, rule, message)

    posix_rel = rel.replace("\\", "/")
    if "asup/util/" not in posix_rel:
        for lineno, line in enumerate(clean_lines, 1):
            if RAW_MUTEX_RE.search(line) and \
                    not is_suppressed(lineno, "asup-raw-mutex"):
                findings.add(
                    rel, lineno, "asup-raw-mutex",
                    "raw std:: locking primitive; use the annotated "
                    "wrappers in util/annotated_mutex.h (Mutex, "
                    "SharedMutex, MutexLock, ReaderLock, WriterLock) so "
                    "the thread-safety analysis sees the acquire")

    if not posix_rel.endswith("asup/suppress/segment.cc"):
        for lineno, line in enumerate(clean_lines, 1):
            if LOG_RATIO_RE.search(line) and \
                    not is_suppressed(lineno, "asup-log-ratio-segment"):
                findings.add(
                    rel, lineno, "asup-log-ratio-segment",
                    "log(x)/log(y) change-of-base arithmetic truncates one "
                    "segment low at exact powers (log(1000)/log(10) < 3); "
                    "use IndistinguishableSegment::IndexOf")

    if "asup/index/" in posix_rel and \
            not posix_rel.endswith(("block_codec.cc", "block_codec.h")):
        for lineno, line in enumerate(clean_lines, 1):
            if POSTING_VARBYTE_RE.search(line) and \
                    not is_suppressed(lineno, "asup-posting-varbyte"):
                findings.add(
                    rel, lineno, "asup-posting-varbyte",
                    "scalar varbyte call on posting bytes outside the "
                    "block codec TU; posting payloads are group-varint "
                    "blocks — use PostingList::Iterator/Decode() or the "
                    "blockcodec entry points")

    if "asup/engine/" in posix_rel:
        for lineno, line in enumerate(clean_lines, 1):
            if WALK_DOCAT_RE.search(line) and \
                    not is_suppressed(lineno, "asup-walk-docat"):
                findings.add(
                    rel, lineno, "asup-walk-docat",
                    "DocAt() in the engine dereferences a Document per "
                    "match; read InvertedIndex::LocalToId / LengthAt")

    check_locked_requires(clean_lines, is_suppressed, rel, findings)

    if "asup/suppress/" in posix_rel:
        check_record_once(path, clean_lines, is_suppressed, rel, findings)

    if any(d in rel.replace("\\", "/") for d in RAW_ASSERT_SUBDIRS):
        for lineno, line in enumerate(clean_lines, 1):
            if RAW_ASSERT_RE.search(line) and \
                    not is_suppressed(lineno, "asup-raw-assert"):
                findings.add(
                    rel, lineno, "asup-raw-assert",
                    "raw assert() compiles out in Release; use ASUP_CHECK "
                    "or ASUP_DCHECK (util/check.h)")

    deterministic = any(d in rel.replace("\\", "/")
                        for d in DETERMINISTIC_SUBDIRS)
    if deterministic:
        for lineno, line in enumerate(clean_lines, 1):
            if OBS_DIRECT_RE.search(line) and \
                    not is_suppressed(lineno, "asup-obs-macro"):
                findings.add(
                    rel, lineno, "asup-obs-macro",
                    "direct obs registry/event-log call in a hot path; "
                    "emit through the ASUP_METRIC_* / ASUP_EVENT_* macros "
                    "so the call compiles out under ASUP_METRICS=OFF")
        names = collect_unordered_names(text)
        names |= collect_unordered_names(paired_header_text(path))
        if names:
            name_re = re.compile(
                r"\b(?:" + "|".join(re.escape(n) for n in sorted(names)) +
                r")\b")
            for lineno, line in enumerate(clean_lines, 1):
                match = RANGE_FOR_RE.search(line)
                if match and name_re.search(match.group(1)) and \
                        not is_suppressed(lineno, "asup-unordered-iteration"):
                    findings.add(
                        rel, lineno, "asup-unordered-iteration",
                        "iteration over an unordered container in a "
                        "deterministic path; canonicalize the order")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: all of src/)")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    if args.paths:
        files = [Path(p).resolve() for p in args.paths]
    else:
        src = root / "src"
        if not src.is_dir():
            print(f"asup_lint: no src/ under {root}", file=sys.stderr)
            return 2
        files = sorted(p for suffix in ("*.cc", "*.h")
                       for p in src.rglob(suffix))

    findings = Findings()
    for path in files:
        try:
            rel = str(path.relative_to(root))
        except ValueError:
            rel = str(path)
        lint_file(path, rel, findings)

    for path, lineno, rule, message in sorted(findings.items):
        print(f"{path}:{lineno}: [{rule}] {message}")
    if findings.items:
        print(f"asup_lint: {len(findings.items)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"asup_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
