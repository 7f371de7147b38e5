"""libclang frontend: clang.cindex over compile_commands.json -> IR.

Preferred when python3-clang is installed (CI pins the version; see
.github/workflows/ci.yml). Produces the same FileModel/Function IR as
internal_frontend so every rule runs unchanged on a real AST: accurate
types for range-fors and declarations, real access specifiers, and
call/lambda structure that doesn't rely on heuristics.

The container this repo grows in has no libclang, so this module must
import lazily and fail with FrontendUnavailable rather than at import
time; simcheck.py falls back to the internal frontend in --frontend=auto.
"""

from __future__ import annotations

import json
import os
import re

from cxxlex import Token
from ir import FileModel, Function, Param, RangeFor

# libclang majors we have validated the cursor walk against. Anything
# else is refused in --frontend=clang (and skipped in auto) so a silent
# behavior change in a future libclang can't weaken the checks.
SUPPORTED_LIBCLANG_MAJORS = (14, 15, 16, 17, 18, 19)

_LIB_CANDIDATES = [
    f"/usr/lib/llvm-{v}/lib/libclang-{v}.so.1"
    for v in sorted(SUPPORTED_LIBCLANG_MAJORS, reverse=True)
] + [
    f"/usr/lib/llvm-{v}/lib/libclang.so.1"
    for v in sorted(SUPPORTED_LIBCLANG_MAJORS, reverse=True)
] + [
    f"/usr/lib/x86_64-linux-gnu/libclang-{v}.so.1"
    for v in sorted(SUPPORTED_LIBCLANG_MAJORS, reverse=True)
]


class FrontendUnavailable(RuntimeError):
    pass


def _load_cindex():
    try:
        from clang import cindex  # type: ignore
    except ImportError as e:
        raise FrontendUnavailable(
            "python3 module clang.cindex not installed "
            "(apt: python3-clang-<N>)") from e
    if not cindex.Config.loaded:
        for cand in _LIB_CANDIDATES:
            if os.path.exists(cand):
                cindex.Config.set_library_file(cand)
                break
    try:
        index = cindex.Index.create()
    except Exception as e:  # cindex raises LibclangError
        raise FrontendUnavailable(f"libclang shared library: {e}") from e
    return cindex, index


def libclang_version(cindex) -> str:
    try:
        raw = cindex.conf.lib.clang_getClangVersion()
        return cindex.conf.lib.clang_getCString(raw).decode() \
            if not isinstance(raw, str) else raw
    except Exception:
        return "unknown"


def _check_version(cindex) -> str:
    ver = libclang_version(cindex)
    m = re.search(r"clang version (\d+)", ver)
    if m and int(m.group(1)) not in SUPPORTED_LIBCLANG_MAJORS:
        raise FrontendUnavailable(
            f"libclang major {m.group(1)} is not in the supported set "
            f"{SUPPORTED_LIBCLANG_MAJORS}; pin one of those")
    return ver


def _compile_args(compile_commands: str | None) -> list[str]:
    """Union of include/-D/-std flags from compile_commands.json so
    headers (which have no compile command) parse standalone."""
    args: list[str] = []
    seen: set[str] = set()
    if compile_commands and os.path.exists(compile_commands):
        with open(compile_commands, encoding="utf-8") as f:
            entries = json.load(f)
        for entry in entries:
            cmd = entry.get("command")
            parts = cmd.split() if cmd else entry.get("arguments", [])
            it = iter(range(len(parts)))
            for i in it:
                p = parts[i]
                if p in ("-I", "-isystem", "-D") and i + 1 < len(parts):
                    pair = p + parts[i + 1]
                    if pair not in seen:
                        seen.add(pair)
                        args += [p, parts[i + 1]]
                elif p.startswith(("-I", "-isystem", "-D", "-std=")):
                    if p not in seen:
                        seen.add(p)
                        args.append(p)
    if not any(a.startswith("-std=") for a in args):
        args.append("-std=c++20")
    return args


_RNG_TYPE_RE = re.compile(
    r"\b(mt19937(_64)?|default_random_engine|minstd_rand0?|"
    r"ranlux24|ranlux48|knuth_b|Rng)\b")

class _Lowerer:
    def __init__(self, cindex, rel: str):
        self.cindex = cindex
        self.K = cindex.CursorKind
        self.model = FileModel(
            path=rel, is_header=rel.endswith((".hh", ".h", ".hpp")))

    def _tok(self, ctok) -> Token:
        kind = {
            "IDENTIFIER": "id",
            "KEYWORD": "id",
            "LITERAL": "num",
            "PUNCTUATION": "punct",
            "COMMENT": "punct",
        }.get(ctok.kind.name, "punct")
        text = ctok.spelling
        if kind == "num" and text.startswith(('"', "'")):
            kind = "str" if text.startswith('"') else "chr"
        return Token(kind, text, ctok.location.line)

    def _qname(self, cursor) -> str:
        parts = []
        c = cursor
        while c is not None and c.kind != self.K.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def _access(self, cursor) -> str:
        acc = cursor.access_specifier
        name = getattr(acc, "name", "NONE").lower()
        return name if name in ("public", "private", "protected") \
            else "free"

    def lower_tu(self, tu, abs_path: str) -> FileModel:
        # Whole-file token stream for the pattern rules.
        K = self.K
        for cur in tu.cursor.walk_preorder():
            loc = cur.location
            if loc.file is None or \
                    os.path.realpath(loc.file.name) != abs_path:
                continue
            if cur.kind in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                            K.DESTRUCTOR, K.CONVERSION_FUNCTION,
                            K.FUNCTION_TEMPLATE):
                self._lower_function(cur)
            elif cur.kind == K.FIELD_DECL:
                owner = cur.semantic_parent.spelling or "<anon>"
                self.model.members[f"{owner}::{cur.spelling}"] = \
                    cur.type.spelling
        ext = tu.get_extent(
            abs_path, ((1, 1), (1 << 24, 1)))
        self.model.tokens = [self._tok(t) for t in tu.get_tokens(extent=ext)]
        return self.model

    def _lower_function(self, cur,
                        parent_fn: Function | None = None) -> None:
        K = self.K
        body = None
        for ch in cur.get_children():
            if ch.kind == K.COMPOUND_STMT:
                body = ch
        params = [
            Param(name=a.spelling or "", type_str=a.type.spelling,
                  line=a.location.line)
            for a in cur.get_arguments()
        ]
        fn = Function(
            qname=self._qname(cur) or f"<fn@{cur.location.line}>",
            name=cur.spelling or f"<fn@{cur.location.line}>",
            line=cur.location.line,
            return_type=cur.result_type.spelling
            if cur.result_type else "",
            params=params,
            access=self._access(cur),
            is_lambda=(cur.kind == K.LAMBDA_EXPR),
        )
        if parent_fn is not None:
            fn.qname = f"{parent_fn.qname}::<lambda@{cur.location.line}>"
            fn.name = f"<lambda@{cur.location.line}>"
            fn.decls.update(parent_fn.decls)
        for p in params:
            if p.name:
                fn.decls[p.name] = p.type_str
        owner = cur.semantic_parent
        if owner is not None and owner.kind in (
                K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE):
            prefix = (owner.spelling or "") + "::"
            for key, ty in self.model.members.items():
                if key.startswith(prefix):
                    fn.decls.setdefault(key[len(prefix):], ty)
        if body is not None:
            self._walk_body(body, fn)
            fn.tokens = [self._tok(t) for t in body.get_tokens()]
        self.model.functions.append(fn)

    def _walk_body(self, node, fn: Function) -> None:
        K = self.K
        for ch in node.get_children():
            kind = ch.kind
            if kind == K.LAMBDA_EXPR:
                self._lower_function(ch, parent_fn=fn)
                continue
            if kind == K.VAR_DECL:
                fn.decls[ch.spelling] = ch.type.spelling
                if _RNG_TYPE_RE.search(ch.type.spelling):
                    has_args = any(
                        gc.kind != K.TYPE_REF
                        for gc in ch.get_children())
                    fn.decls[f"<rng-args:{ch.spelling}>"] = \
                        "yes" if has_args else "no"
                    fn.decls[f"<rng-line:{ch.spelling}>"] = \
                        str(ch.location.line)
            elif kind == K.CXX_FOR_RANGE_STMT:
                kids = list(ch.get_children())
                # children: loop var decl, range init expr, body.
                if len(kids) >= 2:
                    rng = kids[-2]
                    fn.range_fors.append(RangeFor(
                        expr_name=rng.spelling or "",
                        expr_type=rng.type.spelling,
                        line=ch.location.line))
            self._walk_body(ch, fn)


def parse_tree(src_root: str, repo_root: str,
               compile_commands: str | None,
               files: list[str]) -> tuple[list[FileModel], str]:
    """Parse @p files (absolute paths) -> (models, version string)."""
    cindex, index = _load_cindex()
    version = _check_version(cindex)
    args = _compile_args(compile_commands)
    models: list[FileModel] = []
    errors: list[str] = []
    for abs_path in files:
        rel = os.path.relpath(abs_path, repo_root).replace(os.sep, "/")
        try:
            tu = index.parse(
                abs_path, args=args + ["-xc++"],
                options=cindex.TranslationUnit
                .PARSE_DETAILED_PROCESSING_RECORD)
            fatal = [d for d in tu.diagnostics if d.severity >= 4]
            if fatal:
                raise RuntimeError(
                    "; ".join(d.spelling for d in fatal[:3]))
            models.append(
                _Lowerer(cindex, rel).lower_tu(
                    tu, os.path.realpath(abs_path)))
        except Exception as e:  # noqa: BLE001 — per-file isolation
            errors.append(f"{rel}: {e}")
    if errors:
        raise FrontendUnavailable(
            "clang frontend failed on "
            f"{len(errors)} file(s): " + "; ".join(errors[:5]))
    return models, version
