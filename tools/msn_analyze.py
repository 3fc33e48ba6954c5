#!/usr/bin/env python3
"""msn_analyze: AST-grade semantic static analysis for the MosquitoNet repo.

Where msn_lint.py pattern-matches source text, msn_analyze walks the real
clang AST of every translation unit in compile_commands.json, so it sees
through aliases, typedefs, using-declarations, and macro spellings. It
machine-checks the invariants the simulator's correctness story rests on
(DESIGN.md §13: same seed => byte-identical run) plus two API-hygiene rules:

  determinism/unordered-iteration
      Traversal of a std::unordered_{map,set,multimap,multiset} in src/
      (range-for or explicit begin()/cbegin() iteration). Hash-bucket order
      is unspecified and varies across libstdc++ versions and hash seeds;
      when it reaches behavior (packet delivery order, timer scheduling,
      snapshot serialization, metric export) it silently breaks the fuzzer's
      replay, ddmin shrinking, and pinned-corpus oracles. Order-insensitive
      reductions (sum/max over values, cancel-all teardown) carry an inline
      allow stating so.

  determinism/wall-clock
      A call whose *resolved callee* is an OS time source (time, clock,
      gettimeofday, clock_gettime, timespec_get, localtime, gmtime, mktime,
      strftime, or std::chrono::{system,steady,high_resolution}_clock::now)
      — including via aliases and using-declarations the regex rule could
      never see. All time flows from msn::Simulator::Now() (src/sim/time.h).

  determinism/ambient-rng
      A call or declaration whose resolved target is an ambient randomness
      source: std::rand/srand/random/*rand48, std::random_device, or any
      <random> engine (resolved through typedefs: std::mt19937 is caught as
      std::mersenne_twister_engine<...>). All randomness flows from the
      seeded msn::Rng (src/util/rng.h).

  api/nodiscard
      A fallible API missing [[nodiscard]]: returns std::optional<...> or a
      *Result/*Status/*Verdict type (any name), or returns bool with a
      fallibility-signalling name (Parse/Peek/Try/Send/Register/Bind/
      Resolve/Validate/Verify/Authenticate/Apply...). An ignored parse or
      bind result is exactly how PR 3's auth bypass survived review.

  lifetime/packet-span
      A member variable holding a raw byte pointer or byte span. Packet and
      EthernetFrame payloads live in COW pooled storage (DESIGN.md §12): a
      stored data()/span() result dangles when the buffer is released back
      to the pool or COW-isolated under it. Hold the owning Packet
      (refcounted) or copy the bytes; transient parsing views carry an
      inline allow stating so.

Backends
  ast      libclang via the python `clang.cindex` bindings (CI installs
           python3-clang-18 and runs with --require-ast). Needs either a
           compile_commands.json (-p BUILD_DIR) or explicit file paths with
           compiler args after `--`.
  lexical  Degraded stdlib-only fallback used automatically when libclang
           is unavailable (e.g. local containers without clang-18). Covers
           the same rule ids with textual approximations: it cannot resolve
           aliases, restricts api/nodiscard to headers (an attribute may
           legally live on the header declaration only), and approximates
           lifetime/packet-span by member naming convention (trailing '_').

Suppressing a finding
  Append `// msn-analyze: allow(<rule-id>)` to the offending line, or place
  it alone on the line above. Say why nearby. File-level exemptions live in
  FILE_ALLOWLIST below.

Usage
  tools/msn_analyze.py -p build                 # all TUs in compile db
  tools/msn_analyze.py [paths...]               # default: src/
  tools/msn_analyze.py --backend=ast f.cc -- -std=c++20 -Iinclude
  tools/msn_analyze.py --list-rules

Exit status: 0 clean, 1 findings, 2 usage error, 3 when --require-ast was
given but libclang is unavailable. Self-tested by tests/msn_analyze_test.py
(ctest), which skips AST cases gracefully where libclang is absent.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
from pathlib import Path

RULES = {
    "determinism/unordered-iteration":
        "iteration over an unordered container can leak hash-bucket order into behavior",
    "determinism/wall-clock":
        "resolved callee is an OS time source; use msn::Simulator::Now()",
    "determinism/ambient-rng":
        "resolved target is ambient randomness; draw from the seeded msn::Rng",
    "api/nodiscard":
        "fallible API (optional/Result/Status return, or bool with fallible name) "
        "missing [[nodiscard]]",
    "lifetime/packet-span":
        "member stores a raw byte pointer/span; COW packet storage may move or die under it",
}

# (rule-id, repo-relative path) pairs exempted wholesale. Prefer inline
# allows; use this only when a file trips a rule throughout by design.
FILE_ALLOWLIST: set[tuple[str, str]] = set()

ALLOW_RE = re.compile(r"//\s*msn-analyze:\s*allow\(([^)]+)\)")

UNORDERED_CONTAINERS = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
}

# Fully-qualified callee names (implementation namespaces like std::__1 or
# std::chrono::_V2 are stripped before matching).
BANNED_TIME_CALLEES = {
    "std::chrono::system_clock::now",
    "std::chrono::steady_clock::now",
    "std::chrono::high_resolution_clock::now",
    "time", "gettimeofday", "clock_gettime", "timespec_get", "clock",
    "localtime", "gmtime", "mktime", "strftime", "ftime", "timegm",
    "std::time", "std::clock", "std::localtime", "std::gmtime", "std::mktime",
    "std::strftime", "std::timespec_get",
}

BANNED_RNG_CALLEES = {
    "rand", "srand", "random", "srandom", "drand48", "lrand48", "mrand48",
    "std::rand", "std::srand",
}

# Matched against *canonical* type spellings, so typedef'd engines
# (std::mt19937 -> std::mersenne_twister_engine<...>) are caught.
RNG_TYPE_RE = re.compile(
    r"\bstd::(?:mersenne_twister_engine|linear_congruential_engine"
    r"|subtract_with_carry_engine|discard_block_engine"
    r"|independent_bits_engine|shuffle_order_engine|random_device)\b")

FALLIBLE_NAME_RE = re.compile(
    r"^(?:Parse|Peek|Try|Send|Register|Bind|Resolve|Validate|Verify"
    r"|Authenticate|Apply)(?:$|[A-Z_0-9])")

RESULT_TYPE_SUFFIXES = ("Result", "Status", "Verdict")

# Lexical-fallback spellings of the two determinism rules: textual matches on
# comment- and string-stripped source, blind to aliases and typedefs.
WALL_CLOCK_RE = re.compile(
    r"""
    std::chrono::(?:system_clock|steady_clock|high_resolution_clock)
    | \b(?:time|gettimeofday|clock_gettime|timespec_get)\s*\(
    | \bclock\s*\(\s*\)
    | \b(?:localtime|gmtime|mktime|strftime)\s*\(
    """,
    re.VERBOSE,
)

AMBIENT_RNG_RE = re.compile(
    r"""
    \bstd::rand\b
    | \bs?rand\s*\(
    | \brandom_device\b
    | \bstd::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine
              |ranlux(?:24|48)(?:_base)?|knuth_b)\b
    """,
    re.VERBOSE,
)

# Canonical spellings of raw byte views (uint8_t canonicalizes to
# unsigned char; std::byte stays std::byte).
BYTE_POINTER_RE = re.compile(
    r"^(?:const\s+)?(?:unsigned char|std::byte)\s*\*+$")
BYTE_SPAN_RE = re.compile(
    r"^std::span<\s*(?:const\s+)?(?:unsigned char|std::byte)\s*(?:,[^>]*)?>$")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (str(self.path), self.line, self.rule)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line breaks."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state, i = "line_comment", i + 2
                out.append("  ")
                continue
            if c == "/" and nxt == "*":
                state, i = "block_comment", i + 2
                out.append("  ")
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c if state == "code" else " ")
            i += 1
        elif state == "line_comment":
            out.append("\n" if c == "\n" else " ")
            if c == "\n":
                state = "code"
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state, i = "code", i + 2
                out.append("  ")
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


def allowed_lines(text: str) -> dict[int, set[str]]:
    """1-based line -> rule ids allowed there. A standalone allow comment
    also covers the line below it."""
    allows: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        allows.setdefault(lineno, set()).update(rules)
        if line.strip().startswith("//"):
            allows.setdefault(lineno + 1, set()).update(rules)
    return allows


class Reporter:
    """Collects findings, applying suppressions and cross-TU deduplication."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.findings: list[Finding] = []
        self._seen: set[tuple] = set()
        self._allow_cache: dict[str, dict[int, set[str]]] = {}

    def _allows_for(self, path: Path) -> dict[int, set[str]]:
        key = str(path)
        if key not in self._allow_cache:
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError:
                text = ""
            self._allow_cache[key] = allowed_lines(text)
        return self._allow_cache[key]

    def rel(self, path: Path) -> Path:
        try:
            return path.resolve().relative_to(self.root)
        except ValueError:
            return path

    def in_scope(self, path: Path) -> bool:
        return self.rel(path).parts[:1] == ("src",)

    def report(self, path: Path, line: int, rule: str, message: str) -> None:
        rel = self.rel(path)
        if (rule, str(rel)) in FILE_ALLOWLIST:
            return
        if rule in self._allows_for(path).get(line, set()):
            return
        f = Finding(rel, line, rule, message)
        if f.key() in self._seen:
            return
        self._seen.add(f.key())
        self.findings.append(f)


# --- AST backend (libclang via clang.cindex) --------------------------------

def load_cindex(libclang_hint: str | None = None):
    """Returns a working clang.cindex module, or None with a reason string."""
    try:
        from clang import cindex
    except ImportError:
        return None, "python clang bindings (clang.cindex) not importable"
    candidates = []
    if libclang_hint:
        candidates.append(libclang_hint)
    import os
    env = os.environ.get("MSN_LIBCLANG")
    if env:
        candidates.append(env)
    candidates.append(None)  # Default search.
    import glob
    for pattern in ("/usr/lib/llvm-*/lib/libclang-*.so*",
                    "/usr/lib/llvm-*/lib/libclang.so*",
                    "/usr/lib/x86_64-linux-gnu/libclang-*.so*"):
        candidates.extend(sorted(glob.glob(pattern), reverse=True))
    last_err = "no libclang shared library found"
    for cand in candidates:
        try:
            if cand is not None:
                cindex.Config.library_file = cand
            idx = cindex.Index.create()
            del idx
            return cindex, None
        except Exception as e:  # LibclangError, OSError
            last_err = str(e).splitlines()[0] if str(e) else repr(e)
            # Config caches the loaded library handle; reset for next probe.
            cindex.Config.loaded = False
            cindex.conf = cindex.Config()
            continue
    return None, f"libclang not loadable ({last_err})"


def _qualified_name(cindex, cursor) -> str:
    """Fully qualified name with implementation namespaces (__1, _V2,
    __cxx11, ...) stripped, so libstdc++/libc++ spellings normalize."""
    parts = []
    c = cursor
    while c is not None and c.kind != cindex.CursorKind.TRANSLATION_UNIT:
        spelling = c.spelling
        if spelling and not spelling.startswith("_"):
            parts.append(spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def _canonical_type_spelling(cursor) -> str:
    try:
        return cursor.type.get_canonical().spelling
    except Exception:
        return ""


def _is_unordered_canonical(spelling: str) -> bool:
    return any(f"{name}<" in spelling for name in UNORDERED_CONTAINERS)


class AstAnalyzer:
    def __init__(self, cindex, reporter: Reporter, verbose: bool = False):
        self.cindex = cindex
        self.reporter = reporter
        self.verbose = verbose
        self.index = cindex.Index.create()
        self._nodiscard_seen: set[tuple] = set()

    def analyze(self, source: Path, args: list[str]) -> bool:
        """Parses one TU and walks it. Returns False on a parse failure."""
        ci = self.cindex
        try:
            tu = self.index.parse(str(source), args=args)
        except ci.TranslationUnitLoadError as e:
            print(f"msn_analyze: failed to parse {source}: {e}", file=sys.stderr)
            return False
        fatal = [d for d in tu.diagnostics if d.severity >= ci.Diagnostic.Fatal]
        if fatal and self.verbose:
            for d in fatal[:5]:
                print(f"msn_analyze: {source}: {d.spelling}", file=sys.stderr)
        self._walk(tu.cursor)
        return not fatal

    # -- cursor dispatch -----------------------------------------------------

    def _location(self, cursor):
        loc = cursor.location
        if loc.file is None:
            return None, 0
        return Path(loc.file.name), loc.line

    def _walk(self, cursor) -> None:
        ci = self.cindex
        for child in cursor.get_children():
            path, line = self._location(child)
            in_scope = path is not None and self.reporter.in_scope(path)
            # Recurse into out-of-scope containers anyway: a src/ header's
            # declarations appear under the TU cursor wherever parsed from.
            if in_scope:
                kind = child.kind
                if kind == ci.CursorKind.CXX_FOR_RANGE_STMT:
                    self._check_range_for(child, path, line)
                elif kind == ci.CursorKind.CALL_EXPR:
                    self._check_call(child, path, line)
                elif kind == ci.CursorKind.DECL_REF_EXPR:
                    self._check_decl_ref(child, path, line)
                elif kind in (ci.CursorKind.VAR_DECL, ci.CursorKind.FIELD_DECL):
                    self._check_var_or_field(child, path, line)
                elif kind in (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD):
                    self._check_nodiscard(child, path, line)
            self._walk(child)

    # -- determinism/unordered-iteration --------------------------------------

    def _check_range_for(self, cursor, path, line) -> None:
        ci = self.cindex
        for child in cursor.get_children():
            if child.kind == ci.CursorKind.COMPOUND_STMT:
                continue  # Loop body.
            spelling = _canonical_type_spelling(child)
            if _is_unordered_canonical(spelling):
                self.reporter.report(
                    path, line, "determinism/unordered-iteration",
                    "range-for over an unordered container — hash-bucket order is "
                    "not part of the deterministic-replay contract; use a sorted/"
                    "insertion-ordered container, or allow() an order-insensitive "
                    "reduction")
                return

    def _check_call(self, cursor, path, line) -> None:
        ci = self.cindex
        ref = cursor.referenced
        if ref is None:
            return
        name = ref.spelling
        # Explicit iterator traversal: .begin()/.cbegin() on an unordered
        # container (the range-for's hidden begin call dedups onto the same
        # line as the range-for finding).
        if name in ("begin", "cbegin"):
            parent = ref.semantic_parent
            if parent is not None and parent.spelling in UNORDERED_CONTAINERS:
                self.reporter.report(
                    path, line, "determinism/unordered-iteration",
                    "begin() on an unordered container starts a hash-order "
                    "traversal; use a sorted/insertion-ordered container, or "
                    "allow() an order-insensitive reduction")
                return
        qname = _qualified_name(ci, ref)
        if qname in BANNED_TIME_CALLEES:
            self.reporter.report(
                path, line, "determinism/wall-clock",
                f"call resolves to '{qname}', an OS time source; all simulation "
                "time flows from msn::Simulator::Now()")
            return
        if qname in BANNED_RNG_CALLEES:
            self.reporter.report(
                path, line, "determinism/ambient-rng",
                f"call resolves to '{qname}'; draw from the owning component's "
                "seeded msn::Rng instead")
            return
        # Construction of a <random> engine / random_device (typedefs
        # resolve via the constructor's parent class canonical name).
        if ref.kind == ci.CursorKind.CONSTRUCTOR:
            parent = ref.semantic_parent
            if parent is not None and RNG_TYPE_RE.search(
                    _canonical_type_spelling(parent)):
                self.reporter.report(
                    path, line, "determinism/ambient-rng",
                    f"constructs '{_canonical_type_spelling(parent)}'; ambient "
                    "RNG engines are not seed-reproducible — use msn::Rng")

    def _check_decl_ref(self, cursor, path, line) -> None:
        ref = cursor.referenced
        if ref is None or ref.kind != self.cindex.CursorKind.FUNCTION_DECL:
            return
        qname = _qualified_name(self.cindex, ref)
        if qname in BANNED_TIME_CALLEES:
            self.reporter.report(
                path, line, "determinism/wall-clock",
                f"reference to '{qname}', an OS time source; all simulation time "
                "flows from msn::Simulator::Now()")
        elif qname in BANNED_RNG_CALLEES:
            self.reporter.report(
                path, line, "determinism/ambient-rng",
                f"reference to '{qname}'; draw from the owning component's "
                "seeded msn::Rng instead")

    # -- determinism/ambient-rng (typed declarations) + lifetime/packet-span --

    def _check_var_or_field(self, cursor, path, line) -> None:
        ci = self.cindex
        spelling = _canonical_type_spelling(cursor)
        if RNG_TYPE_RE.search(spelling):
            self.reporter.report(
                path, line, "determinism/ambient-rng",
                f"declares '{cursor.spelling}' of ambient RNG type "
                f"'{spelling}'; use the seeded msn::Rng")
            return
        if cursor.kind == ci.CursorKind.FIELD_DECL:
            if BYTE_POINTER_RE.match(spelling) or BYTE_SPAN_RE.match(spelling):
                self.reporter.report(
                    path, line, "lifetime/packet-span",
                    f"member '{cursor.spelling}' holds a raw byte view; packet "
                    "storage is COW-pooled (DESIGN.md §12) and may be released "
                    "or isolated under it — hold the owning Packet or copy; "
                    "allow() transient parsing views")

    # -- api/nodiscard ---------------------------------------------------------

    def _decl_has_nodiscard(self, cursor) -> bool:
        name = cursor.spelling
        for token in cursor.get_tokens():
            if token.spelling == name and token.kind.name == "IDENTIFIER":
                return False
            if token.spelling in ("nodiscard", "warn_unused_result", "__wur"):
                return True
        return False

    def _check_nodiscard(self, cursor, path, line) -> None:
        ci = self.cindex
        name = cursor.spelling
        if not name or name.startswith("operator") or name == "main":
            return
        canonical = cursor.canonical
        cpath, cline = self._location(canonical)
        key = (str(cpath), cline, canonical.spelling)
        if key in self._nodiscard_seen:
            return
        # Judge the canonical (first) declaration: the attribute may legally
        # appear there alone, and redeclarations inherit the semantics.
        if cpath is None or not self.reporter.in_scope(cpath):
            return
        result = canonical.result_type.get_canonical()
        rspell = result.spelling
        fallible = False
        if rspell.startswith("std::optional<"):
            fallible = True
        elif rspell == "bool" and FALLIBLE_NAME_RE.match(name):
            fallible = True
        else:
            decl = result.get_declaration()
            if decl is not None and decl.spelling and \
                    decl.spelling.endswith(RESULT_TYPE_SUFFIXES):
                fallible = True
        if not fallible:
            return
        self._nodiscard_seen.add(key)
        if self._decl_has_nodiscard(canonical):
            return
        self.reporter.report(
            cpath, cline, "api/nodiscard",
            f"'{name}' returns {rspell} but is not [[nodiscard]]; an ignored "
            "result here is a silent protocol failure")


# --- Lexical fallback backend ------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>\s+(\w+)\s*[;={]",
    re.DOTALL)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;()]*?:\s*(?:\w+(?:\.|->))*(\w+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")

# Anchored to a statement/declaration boundary rather than line start, so
# one-line class bodies (`struct P { bool Parse(int); };`) still match.
LEX_NODISCARD_RE = re.compile(
    r"(?:^|[{};])\s*(?:virtual\s+)?(?:static\s+)?(?:constexpr\s+)?"
    r"(bool|std::optional<[^;{(]*?>|\w+(?:Result|Status|Verdict))"
    r"\s+(\w+)\s*\(")

LEX_BYTE_FIELD_RE = re.compile(
    r"(?:^|[{};])\s*(?:const\s+)?(?:std::)?(?:uint8_t|byte)\s*\*\s*(\w+_)\s*(?:=[^;]*)?;"
    r"|(?:^|[{};])\s*std::span<\s*(?:const\s+)?(?:std::)?(?:uint8_t|byte)\s*>\s+(\w+_)\s*;")


class LexicalAnalyzer:
    """Degraded textual approximation of the AST rules, for environments
    without libclang. Shares rule ids and suppression syntax."""

    def __init__(self, reporter: Reporter):
        self.reporter = reporter

    def analyze_files(self, files: list[Path]) -> None:
        texts: dict[Path, str] = {}
        unordered_names: set[str] = set()
        for f in files:
            text = f.read_text(encoding="utf-8", errors="replace")
            code = strip_comments_and_strings(text)
            texts[f] = code
            for m in UNORDERED_DECL_RE.finditer(code):
                unordered_names.add(m.group(1))
        for f, code in texts.items():
            if not self.reporter.in_scope(f):
                continue
            lines = code.splitlines()
            self._check_unordered(f, code, unordered_names)
            for lineno, line in enumerate(lines, start=1):
                if m := WALL_CLOCK_RE.search(line):
                    self.reporter.report(
                        f, lineno, "determinism/wall-clock",
                        f"'{m.group(0).strip()}' bypasses the simulator clock "
                        "(lexical fallback); use msn::Simulator::Now()")
                if m := AMBIENT_RNG_RE.search(line):
                    self.reporter.report(
                        f, lineno, "determinism/ambient-rng",
                        f"'{m.group(0).strip()}' is not seed-reproducible "
                        "(lexical fallback); use the seeded msn::Rng")
            if f.suffix == ".h":
                self._check_nodiscard(f, lines)
                self._check_byte_fields(f, lines)

    def _check_unordered(self, f: Path, code: str, names: set[str]) -> None:
        for regex, what in ((RANGE_FOR_RE, "range-for over"),
                            (BEGIN_CALL_RE, "begin() on")):
            for m in regex.finditer(code):
                if m.group(1) not in names:
                    continue
                lineno = code.count("\n", 0, m.start()) + 1
                self.reporter.report(
                    f, lineno, "determinism/unordered-iteration",
                    f"{what} '{m.group(1)}', declared as an unordered container "
                    "— hash-bucket order is not part of the deterministic-replay "
                    "contract; use sorted/insertion-ordered traversal or allow() "
                    "an order-insensitive reduction")

    def _check_nodiscard(self, f: Path, lines: list[str]) -> None:
        for lineno, line in enumerate(lines, start=1):
            for m in LEX_NODISCARD_RE.finditer(line):
                rtype, name = m.group(1), m.group(2)
                if rtype == "bool" and not FALLIBLE_NAME_RE.match(name):
                    continue
                if name.startswith("operator") or name == "main":
                    continue
                window = lines[max(0, lineno - 2):lineno]
                if any("nodiscard" in w for w in window):
                    continue
                self.reporter.report(
                    f, lineno, "api/nodiscard",
                    f"'{name}' returns {rtype} but is not [[nodiscard]] "
                    "(lexical fallback, headers only)")

    def _check_byte_fields(self, f: Path, lines: list[str]) -> None:
        for lineno, line in enumerate(lines, start=1):
            for m in LEX_BYTE_FIELD_RE.finditer(line):
                name = m.group(1) or m.group(2)
                self.reporter.report(
                    f, lineno, "lifetime/packet-span",
                    f"member '{name}' holds a raw byte view; packet storage is "
                    "COW-pooled and may be released or isolated under it — hold "
                    "the owning Packet or copy; allow() transient parsing views")


# --- Drivers -----------------------------------------------------------------

def load_compile_commands(build_dir: Path) -> list[dict]:
    db = build_dir / "compile_commands.json"
    if not db.is_file():
        raise FileNotFoundError(db)
    return json.loads(db.read_text())


def compile_args_for(entry: dict) -> list[str]:
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry["command"])
    out: list[str] = []
    skip_next = False
    src = entry["file"]
    for i, a in enumerate(argv):
        if i == 0:
            continue  # The compiler binary.
        if skip_next:
            skip_next = False
            continue
        if a in ("-c", src) or a.endswith(src):
            continue
        if a in ("-o", "-MF", "-MT", "-MQ"):
            skip_next = True
            continue
        if a in ("-MD", "-MMD", "-MP"):
            continue
        out.append(a)
    return out


def collect_files(root: Path, paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        path = (root / p) if not Path(p).is_absolute() else Path(p)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.h")))
            files.extend(sorted(path.rglob("*.cc")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(p)
    return files


def run_ast(cindex, root: Path, build_dir: Path | None, paths: list[str],
            extra_args: list[str], verbose: bool) -> list[Finding]:
    reporter = Reporter(root)
    analyzer = AstAnalyzer(cindex, reporter, verbose=verbose)
    if build_dir is not None:
        entries = load_compile_commands(build_dir)
        wanted = None
        if paths:
            wanted = [str((root / p).resolve()) for p in paths]
        for entry in entries:
            src = Path(entry["directory"], entry["file"]).resolve()
            if not reporter.in_scope(src):
                continue
            if wanted and not any(str(src).startswith(w) for w in wanted):
                continue
            analyzer.analyze(src, compile_args_for(entry))
    else:
        for f in collect_files(root, paths or ["src"]):
            if f.suffix != ".cc" and not paths:
                continue  # Headers ride in via their TUs in default mode.
            # `-x c++` so standalone .h fixtures parse as C++ too.
            analyzer.analyze(
                f, ["-x", "c++", "-std=c++20", f"-I{root}"] + extra_args)
    return reporter.findings


def run_lexical(root: Path, paths: list[str]) -> list[Finding]:
    reporter = Reporter(root)
    LexicalAnalyzer(reporter).analyze_files(collect_files(root, paths or ["src"]))
    return reporter.findings


def main(argv: list[str]) -> int:
    if "--" in argv:
        split = argv.index("--")
        argv, extra_args = argv[:split], argv[split + 1:]
    else:
        extra_args = []
    parser = argparse.ArgumentParser(
        prog="msn_analyze.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze (default: src/; "
                             "with -p, filters the compile db)")
    parser.add_argument("-p", "--build-dir", default=None,
                        help="build dir containing compile_commands.json")
    parser.add_argument("--root",
                        default=str(Path(__file__).resolve().parent.parent),
                        help="repository root")
    parser.add_argument("--backend", choices=("auto", "ast", "lexical"),
                        default="auto")
    parser.add_argument("--require-ast", action="store_true",
                        help="exit 3 instead of degrading when libclang is "
                             "unavailable (CI uses this)")
    parser.add_argument("--libclang", default=None,
                        help="explicit libclang shared library path")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule:34} {desc}")
        return 0

    root = Path(args.root).resolve()
    backend = args.backend
    cindex = None
    if backend in ("auto", "ast"):
        cindex, reason = load_cindex(args.libclang)
        if cindex is None:
            if args.require_ast or backend == "ast":
                print(f"msn_analyze: AST backend unavailable: {reason}",
                      file=sys.stderr)
                return 3
            print(f"msn_analyze: {reason}; degrading to the lexical fallback "
                  "(aliases and typedefs will not be resolved)", file=sys.stderr)
            backend = "lexical"
        else:
            backend = "ast"

    try:
        if backend == "ast":
            build_dir = Path(args.build_dir) if args.build_dir else None
            if build_dir is not None and not build_dir.is_absolute():
                build_dir = root / build_dir
            findings = run_ast(cindex, root, build_dir, args.paths,
                               extra_args, args.verbose)
        else:
            findings = run_lexical(root, args.paths)
    except FileNotFoundError as e:
        print(f"msn_analyze: no such path: {e}", file=sys.stderr)
        return 2

    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"msn_analyze: {len(findings)} finding(s) in "
              f"{len({str(f.path) for f in findings})} file(s) "
              f"[{backend} backend]", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
