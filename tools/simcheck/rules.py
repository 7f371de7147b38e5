"""simcheck rules: the simulator's semantic contracts over the IR.

Three families, mirroring the contracts in DESIGN.md §5:

Determinism ("same seed -> byte-identical telemetry"):
  det-unordered-iter     iteration over std::unordered_{map,set} —
                         iteration order is hash/allocation dependent
  det-pointer-key        ordered container keyed by pointer value —
                         ordering depends on allocator addresses
  det-pointer-compare    relational comparison of two pointers (or
                         default-compare sort of a pointer vector)
  det-unseeded-rng       RNG engine constructed with no seed argument;
                         seeds must flow from config structs
  det-ambient-entropy    rand(), std::random_device, wall clocks,
                         time(NULL) and getenv() anywhere in src/

Unit soundness (common/quantity.hh, now enforced across ALL of src/):
  unit-raw-double        unit-suffixed (_w/_j/_c/_bps/_s) parameter,
                         return, member, or local held in plain double
  unit-value-escape      public header function returning a raw
                         Quantity::value() double across the API

Library hygiene (token rules):
  lib-iostream           <iostream>/<ostream>/<istream> in library code
  hot-path-alloc         std::function or make_shared in src/sim,
                         src/net or src/obs
  obs-header-alloc       allocation-prone construct in a src/obs header,
                         where the inline metric increment paths live
  dead-export            function defined in a src/ .cc file whose name
                         nothing in src/, bench/, examples/ or
                         hostbench/ mentions outside its own
                         declaration and definition (tests do not count)

tests/test_alloc.cc backs the allocation rules dynamically: a
steady-state iteration must make zero heap allocations.
"""

from __future__ import annotations

import re
from functools import partial

from cxxlex import DIRECTIVE, ID, Token, match_seq
from ir import FileModel, Finding, Function

UNORDERED_RE = re.compile(r"\bunordered_(map|set|multimap|multiset)\b")
ORDERED_ASSOC_RE = re.compile(
    r"(?:\bstd\s*::\s*)?\b(map|set|multimap|multiset)\s*<")
RNG_NO_SEED_MSG = (
    "RNG engine constructed without a seed; seeds must flow from an "
    "explicit config field (see common/rng.hh)")

UNIT_SUFFIX_RE = re.compile(r"_(w|j|c|bps|s)$")

# Ambient-entropy names; the AMBIENT_CALLS ones only when called as free
# functions (qualified or not): x.rand() is some class's own API.
AMBIENT = dict.fromkeys(
    ("system_clock", "steady_clock", "high_resolution_clock"),
    "wall-clock time breaks replay; use the simulator clock") | {
    "random_device": "std::random_device is nondeterministic; seed "
                     "common/rng.hh explicitly",
    "rand": "rand() is ambient entropy; use common/rng.hh with an "
            "explicit seed",
    "time": "time(NULL) is ambient entropy; use the simulator clock",
    "getenv": "environment lookups hide config; pass options structs "
              "instead",
}
AMBIENT_CALLS = ("rand", "time", "getenv")
TIME_NULL_ARGS = ("NULL", "nullptr", "0")

# The internal lexer keeps `#include <iostream>` as one directive token;
# libclang splits it into `#`, `include`, `<`, `iostream`, `>`.
STREAM_INCLUDE_RE = re.compile(r"#\s*include\s*<(iostream|ostream|istream)>")
STREAM_HEADERS = ("iostream", "ostream", "istream")

HOT_PATH_DIRS = ("src/sim/", "src/net/", "src/obs/")
OBS_ALLOC_NAMES = ("new", "make_shared", "make_unique", "push_back",
                   "emplace_back")


def _is_call(toks, i: int) -> bool:
    """Token @p i is called, and not as a member (`.`/`->`)."""
    return match_seq(toks, i + 1, ["("]) and \
        (i == 0 or toks[i - 1].text not in (".", "->"))


def _is_std_function(toks, i: int) -> bool:
    return toks[i].text == "function" and i >= 2 and \
        toks[i - 1].text == "::" and toks[i - 2].text == "std"


def _ambient_entropy(toks, i: int) -> str | None:
    t = toks[i]
    if t.kind != ID or t.text not in AMBIENT:
        return None
    if t.text in AMBIENT_CALLS and not _is_call(toks, i):
        return None
    if t.text == "time" and not (match_seq(toks, i + 3, [")"]) and
                                 toks[i + 2].text in TIME_NULL_ARGS):
        return None
    return AMBIENT[t.text]


def _stream_include(toks, i: int) -> str | None:
    t = toks[i]
    if (t.kind == DIRECTIVE and STREAM_INCLUDE_RE.search(t.text)) or (
            match_seq(toks, i, ["#", "include", "<", "*", ">"]) and
            toks[i + 3].text in STREAM_HEADERS):
        return ("library code must not use std streams; use the CSV/trace "
                "writers or return data")
    return None


def _hot_path_alloc(toks, i: int) -> str | None:
    if _is_std_function(toks, i):
        return ("std::function heap-allocates captured state on the event "
                "hot path; use sim::EventFn (or a concrete callable type)")
    if toks[i].text == "make_shared":
        return ("per-event shared_ptr records defeat the slab allocator; "
                "use the pooled event/flow slabs")
    return None


def _obs_header_alloc(toks, i: int) -> str | None:
    text = toks[i].text
    if text in OBS_ALLOC_NAMES or _is_std_function(toks, i) or (
            text in ("resize", "reserve") and match_seq(toks, i + 1, ["("])):
        return (f"'{text}' may allocate in an obs header; the inline metric "
                "increment path must not allocate — declare here, define "
                "in the .cc")
    return None


# dead-export: a name followed by `(` declares or defines a function
# when everything back to the statement's start is specifiers and a
# return type (identifiers, `::`, template brackets, `*`, `&`). Any
# other occurrence (a call, `&Class::fn`, `using`, a macro body) is a
# use; an unsure reading counts as a use, so the rule errs quiet.
DECL_PUNCT = frozenset(("::", "<", ">", ">>", ",", "*", "&", "&&", "[", "]",
                        "..."))
STMT_BOUNDARY = frozenset((";", "{", "}", ":"))
NOT_TYPE = frozenset(("return", "throw", "else", "do", "case", "goto",
                      "new", "delete", "co_return", "co_yield",
                      "co_await", "sizeof", "using"))
INCLUDE_RE = re.compile(r"#\s*include\b")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _declares(toks: list[Token], k: int) -> bool:
    """toks[k] is the name in a function declaration or definition."""
    if not match_seq(toks, k + 1, ["("]):
        return False
    j = k - 1
    while j >= 1 and toks[j].text == "::" and toks[j - 1].kind == ID:
        j -= 2  # out-of-line `Class::` qualification
    typed = False
    while j >= 0 and toks[j].text not in STMT_BOUNDARY and \
            toks[j].kind != DIRECTIVE:
        t = toks[j]
        if t.kind == ID:
            if t.text in NOT_TYPE:
                return False
            typed = True
        elif t.text not in DECL_PUNCT:
            return False
        j -= 1
    return typed


def _uses(path: str, toks: list[Token]):
    """(name, path, line) of every occurrence that is not a
    declaration, macro bodies included."""
    for k, t in enumerate(toks):
        if t.kind == ID and not _declares(toks, k):
            yield t.text, path, t.line
        elif t.kind == DIRECTIVE and not INCLUDE_RE.match(t.text):
            for name in IDENT_RE.findall(t.text):
                yield name, path, t.line


def _export_candidate(fm: FileModel, fn: Function) -> bool:
    """A named, non-special function defined (with a body) in a .cc."""
    parts = fn.qname.split("::")
    return fm.path.endswith(".cc") and not fn.is_lambda and \
        bool(fn.tokens) and fn.name != "main" and \
        not fn.name.startswith(("operator", "~", "<")) and \
        not (len(parts) >= 2 and parts[-2] == fn.name)


# rule -> (which files it applies to, message for a hit at token i).
TOKEN_RULES = {
    "det-ambient-entropy": (lambda fm: True, _ambient_entropy),
    "lib-iostream": (lambda fm: True, _stream_include),
    "hot-path-alloc": (lambda fm: fm.path.startswith(HOT_PATH_DIRS),
                       _hot_path_alloc),
    "obs-header-alloc": (
        lambda fm: fm.is_header and fm.path.startswith("src/obs/"),
        _obs_header_alloc),
}


RULES = [
    ("det-unordered-iter",
     "iteration over an unordered associative container"),
    ("det-pointer-key",
     "ordered container keyed by pointer value"),
    ("det-pointer-compare",
     "relational comparison of pointer values used for ordering"),
    ("det-unseeded-rng",
     "RNG engine constructed without an explicit seed"),
    ("unit-raw-double",
     "unit-suffixed raw double parameter/return/member"),
    ("unit-value-escape",
     "public header API returning Quantity::value() as raw double"),
    ("det-ambient-entropy",
     "rand, random_device, wall clock, time(NULL) or getenv"),
    ("lib-iostream", "std stream header included in library code"),
    ("hot-path-alloc", "std::function or make_shared on the hot path"),
    ("obs-header-alloc", "allocation-prone construct in a src/obs header"),
    ("dead-export",
     "function defined in src/ that no src/bench/examples/hostbench "
     "code names"),
]


def _snippet(fm: FileModel, line: int, source_lines: list[str]) -> str:
    if 1 <= line <= len(source_lines):
        return source_lines[line - 1].strip()
    return ""


class Analyzer:
    def __init__(self, models: list[FileModel],
                 sources: dict[str, list[str]],
                 callers: dict[str, list[Token]] | None = None):
        self.models = models
        self.sources = sources  # path -> source lines (for snippets)
        # path -> tokens of the non-library code that may call src/
        # (bench/, examples/, hostbench/); only dead-export reads them.
        self.callers = callers or {}
        self.findings: list[Finding] = []

    # -- helpers --------------------------------------------------------

    def _emit(self, rule: str, fm: FileModel, line: int, message: str,
              function: str = "") -> None:
        self.findings.append(Finding(
            rule=rule, file=fm.path, line=line, message=message,
            snippet=_snippet(fm, line, self.sources.get(fm.path, [])),
            function=function))

    def run(self, only_rules: set[str] | None = None) -> list[Finding]:
        checks = {
            "det-unordered-iter": self.check_unordered_iter,
            "det-pointer-key": self.check_pointer_key,
            "det-pointer-compare": self.check_pointer_compare,
            "det-unseeded-rng": self.check_unseeded_rng,
            "unit-raw-double": self.check_unit_raw_double,
            "unit-value-escape": self.check_value_escape,
            "dead-export": self.check_dead_export,
        } | {rule: partial(self.scan_tokens, rule, *spec)
             for rule, spec in TOKEN_RULES.items()}
        for rule, fn in checks.items():
            if only_rules is None or rule in only_rules:
                fn()
        self.findings.sort(key=lambda f: (f.file, f.line, f.rule))
        return self.findings

    def scan_tokens(self, rule: str, applies, message_at) -> None:
        for fm in self.models:
            if applies(fm):
                for i, t in enumerate(fm.tokens):
                    message = message_at(fm.tokens, i)
                    if message:
                        self._emit(rule, fm, t.line, message)

    # -- determinism ----------------------------------------------------

    def check_unordered_iter(self) -> None:
        for fm in self.models:
            for fn in fm.functions:
                for rf in fn.range_fors:
                    if UNORDERED_RE.search(rf.expr_type):
                        self._emit(
                            "det-unordered-iter", fm, rf.line,
                            f"range-for over '{rf.expr_name}' "
                            f"({rf.expr_type}): unordered iteration "
                            "order is not deterministic across "
                            "implementations; use a sorted container "
                            "or an index-ordered loop",
                            fn.qname)
                # .begin()/.cbegin() on an unordered container.
                toks = fn.tokens
                for i, t in enumerate(toks):
                    if t.text in ("begin", "cbegin") and i >= 2 and \
                            toks[i - 1].text in (".", "->") and \
                            toks[i - 2].kind == "id":
                        ty = fn.decls.get(toks[i - 2].text, "")
                        if UNORDERED_RE.search(ty):
                            self._emit(
                                "det-unordered-iter", fm, t.line,
                                f"iterator over '{toks[i - 2].text}' "
                                f"({ty}): unordered iteration order is "
                                "not deterministic",
                                fn.qname)

    def check_pointer_key(self) -> None:
        def first_template_arg(ty: str) -> str:
            m = ORDERED_ASSOC_RE.search(ty)
            if not m:
                return ""
            rest = ty[m.end():]
            depth = 0
            for i, ch in enumerate(rest):
                if ch == "<":
                    depth += 1
                elif ch == ">" and depth == 0:
                    return rest[:i].strip()
                elif ch == ">":
                    depth -= 1
                elif ch == "," and depth == 0:
                    return rest[:i].strip()
            return rest.strip()

        for fm in self.models:
            seen: set[tuple[str, int]] = set()

            def scan(name: str, ty: str, line: int, where: str) -> None:
                # Ignore unordered here; det-unordered-iter owns those.
                if UNORDERED_RE.search(ty):
                    return
                key = first_template_arg(ty)
                if key.endswith("*"):
                    loc = (ty, line)
                    if loc in seen:
                        return
                    seen.add(loc)
                    self._emit(
                        "det-pointer-key", fm, line,
                        f"'{name}' is an ordered container keyed by "
                        f"pointer ({ty}): iteration order follows "
                        "allocator addresses; key by a stable id",
                        where)

            for mname, mty in fm.members.items():
                # Member lines are not tracked; find the decl line from
                # any function that inherited it, else report line 1.
                scan(mname, mty, self._member_line(fm, mname), "")
            for fn in fm.functions:
                for name, ty in fn.decls.items():
                    if name.startswith("<"):
                        continue
                    scan(name, ty, fn.line, fn.qname)

    def _member_line(self, fm: FileModel, member: str) -> int:
        # Best-effort: grep the source for the member name.
        name = member.split("::")[-1]
        for i, src_line in enumerate(self.sources.get(fm.path, []), 1):
            if name in src_line and (";" in src_line or "=" in src_line) \
                    and ORDERED_ASSOC_RE.search(src_line):
                return i
        return 1

    def check_pointer_compare(self) -> None:
        for fm in self.models:
            for fn in fm.functions:
                toks = fn.tokens
                for i, t in enumerate(toks):
                    if t.text not in ("<", ">", "<=", ">="):
                        continue
                    if i == 0 or i + 1 >= len(toks):
                        continue
                    lhs, rhs = toks[i - 1], toks[i + 1]
                    if lhs.kind != "id" or rhs.kind != "id":
                        continue
                    lty = fn.decls.get(lhs.text, "")
                    rty = fn.decls.get(rhs.text, "")
                    if lty.rstrip("const ").endswith("*") and \
                            rty.rstrip("const ").endswith("*"):
                        self._emit(
                            "det-pointer-compare", fm, t.line,
                            f"ordering '{lhs.text} {t.text} {rhs.text}' "
                            "compares pointer values; addresses vary "
                            "run-to-run — compare stable ids instead",
                            fn.qname)
                # std::sort(v.begin(), v.end()) on vector<T*> without a
                # comparator.
                for i, t in enumerate(toks):
                    if t.text != "sort":
                        continue
                    if i + 1 >= len(toks) or toks[i + 1].text != "(":
                        continue
                    # First arg: name.begin()
                    if i + 2 < len(toks) and toks[i + 2].kind == "id":
                        base = toks[i + 2].text
                        ty = fn.decls.get(base, "")
                        if re.search(r"\bvector\s*<[^>]*\*\s*>", ty):
                            # Count top-level commas to detect a custom
                            # comparator (3rd argument).
                            from cxxlex import find_matching
                            close = find_matching(toks, i + 1, "(", ")")
                            commas = 0
                            depth = 0
                            for j in range(i + 2, close):
                                tt = toks[j].text
                                if tt in ("(", "[", "{"):
                                    depth += 1
                                elif tt in (")", "]", "}"):
                                    depth -= 1
                                elif tt == "," and depth == 0:
                                    commas += 1
                            if commas <= 1:
                                self._emit(
                                    "det-pointer-compare", fm, t.line,
                                    f"std::sort of '{base}' ({ty}) with "
                                    "the default comparator orders by "
                                    "pointer value; sort by a stable key",
                                    fn.qname)

    def check_unseeded_rng(self) -> None:
        for fm in self.models:
            for fn in fm.functions:
                for name, val in list(fn.decls.items()):
                    if not name.startswith("<rng-args:"):
                        continue
                    if val == "yes":
                        continue
                    var = name[len("<rng-args:"):-1]
                    line = int(fn.decls.get(f"<rng-line:{var}>", fn.line))
                    self._emit("det-unseeded-rng", fm, line,
                               f"'{var}': {RNG_NO_SEED_MSG}", fn.qname)

    # -- unit soundness -------------------------------------------------

    def check_unit_raw_double(self) -> None:
        """Token-stream scan so prototypes, members, and locals are all
        covered (in every file under src/, not just physics headers)."""
        for fm in self.models:
            toks = fm.tokens
            for i, t in enumerate(toks):
                if t.text != "double":
                    continue
                # double <id>_suffix   followed by , ) = ; ( {
                j = i + 1
                while j < len(toks) and toks[j].text in ("&", "*", "const"):
                    j += 1
                if j >= len(toks) or toks[j].kind != "id":
                    continue
                name = toks[j].text
                if not UNIT_SUFFIX_RE.search(name):
                    continue
                nxt = toks[j + 1].text if j + 1 < len(toks) else ""
                if nxt == "(":
                    self._emit(
                        "unit-raw-double", fm, toks[j].line,
                        f"'{name}' returns a unit-carrying value as raw "
                        "double; return the typed quantity "
                        "(common/quantity.hh)")
                elif nxt in (",", ")", "=", ";", "{"):
                    self._emit(
                        "unit-raw-double", fm, toks[j].line,
                        f"'{name}' holds a unit-carrying value in raw "
                        "double; use the typed quantity "
                        "(common/quantity.hh)")

    def check_value_escape(self) -> None:
        for fm in self.models:
            if not fm.is_header:
                continue
            for fn in fm.functions:
                if fn.is_lambda or fn.access not in ("public", "free"):
                    continue
                if fn.return_type.replace("const", "").strip() != "double":
                    continue
                toks = fn.tokens
                for i, t in enumerate(toks):
                    if t.text != "return":
                        continue
                    # return <expr> . value ( ) ;
                    j = i + 1
                    depth = 0
                    hit_line = None
                    while j < len(toks):
                        tt = toks[j].text
                        if tt in ("(", "[", "{"):
                            depth += 1
                        elif tt in (")", "]", "}"):
                            depth -= 1
                        elif tt == ";" and depth <= 0:
                            break
                        if tt == "value" and j >= 1 and \
                                toks[j - 1].text in (".", "->") and \
                                j + 1 < len(toks) and \
                                toks[j + 1].text == "(":
                            hit_line = toks[j].line
                        j += 1
                    if hit_line is not None:
                        self._emit(
                            "unit-value-escape", fm, hit_line,
                            f"public API '{fn.name}' returns "
                            "Quantity::value() as raw double, dropping "
                            "the unit at the call boundary; return the "
                            "typed quantity (escape hatches belong at "
                            "CSV/trace/NVML writers)",
                            fn.qname)

    # -- library surface ------------------------------------------------

    def check_dead_export(self) -> None:
        streams = [(fm.path, fm.tokens) for fm in self.models] + \
            list(self.callers.items())
        uses: dict[str, list[tuple[str, int]]] = {}
        for path, toks in streams:
            for name, where, line in _uses(path, toks):
                uses.setdefault(name, []).append((where, line))
        for fm in self.models:
            for fn in fm.functions:
                if not _export_candidate(fm, fn):
                    continue
                last = max(t.line for t in fn.tokens)
                if any(not (path == fm.path and fn.line <= line <= last)
                       for path, line in uses.get(fn.name, ())):
                    continue
                self._emit(
                    "dead-export", fm, fn.line,
                    f"'{fn.name}' is defined here, but nothing in src/, "
                    "bench/, examples/ or hostbench/ names it outside its "
                    "own declaration and definition; give it a caller or "
                    "delete it with the tests that check only it",
                    fn.qname)
