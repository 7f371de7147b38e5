"""Built-in C++ frontend: tokens -> simcheck IR, no libclang needed.

This is a scope-tracking structural parser, not a full C++ parser. It
understands exactly as much C++ as the rules need:

 - namespace / class / struct nesting with access specifiers
 - function definitions (incl. ctors with init lists, trailing return
   types, operators) and their parameter lists
 - variable declarations whose type is "interesting" (containers, RNG
   engines, raw pointers, plain double)
 - range-for statements and the entity they iterate
 - lambdas (their captures see the enclosing function's declarations)

Macro bodies are not expanded; the simulator library is macro-light by
policy (CHARLLM_ASSERT/CHECK only), so this costs nothing in practice.
The libclang frontend (clang_frontend.py) produces the same IR from a
real AST and is preferred when python3-clang is installed.
"""

from __future__ import annotations

from cxxlex import DIRECTIVE, ID, PUNCT, Token, find_matching, tokenize
from ir import FileModel, Function, Param, RangeFor

KEYWORDS = {
    "alignas", "alignof", "asm", "auto", "bool", "break", "case", "catch",
    "char", "class", "const", "consteval", "constexpr", "constinit",
    "const_cast", "continue", "decltype", "default", "delete", "do",
    "double", "dynamic_cast", "else", "enum", "explicit", "export",
    "extern", "false", "float", "for", "friend", "goto", "if", "inline",
    "int", "long", "mutable", "namespace", "new", "noexcept", "nullptr",
    "operator", "private", "protected", "public", "register",
    "reinterpret_cast", "requires", "return", "short", "signed", "sizeof",
    "static", "static_assert", "static_cast", "struct", "switch",
    "template", "this", "thread_local", "throw", "true", "try", "typedef",
    "typeid", "typename", "union", "unsigned", "using", "virtual", "void",
    "volatile", "wchar_t", "while", "co_await", "co_return", "co_yield",
    "final", "override",
}

# Call-like names that are control flow / casts, not functions.
NOT_CALLS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "decltype", "noexcept", "catch", "assert", "defined", "typeid",
    "static_assert", "alignas", "throw", "new", "delete", "requires",
}

_QUALIFIERS = {"const", "constexpr", "inline", "static", "virtual",
               "explicit", "friend", "mutable", "typename", "volatile",
               "noexcept", "override", "final", "consteval", "constinit",
               "extern", "thread_local", "[[nodiscard]]"}

# Type heads worth recording as variable declarations.
_CONTAINER_HEADS = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "map", "set", "multimap", "multiset",
    "vector", "deque", "list", "array", "span",
}
_RNG_HEADS = {
    "mt19937", "mt19937_64", "default_random_engine", "minstd_rand",
    "minstd_rand0", "ranlux24", "ranlux48", "knuth_b", "Rng",
}


def _type_text(toks: list[Token]) -> str:
    """Render a token span as a normalized type string."""
    out: list[str] = []
    for t in toks:
        if out and out[-1] and (out[-1][-1].isalnum() or out[-1][-1] == "_") \
                and (t.text[0].isalnum() or t.text[0] == "_"):
            out.append(" ")
        out.append(t.text)
    return "".join(out)


class _Parser:
    def __init__(self, path: str, rel: str, text: str):
        self.toks = tokenize(text)
        self.model = FileModel(
            path=rel,
            is_header=rel.endswith((".hh", ".h", ".hpp")),
            tokens=self.toks,
        )

    # ------------------------------------------------------------------
    # Scope walk
    # ------------------------------------------------------------------

    def parse(self) -> FileModel:
        self._walk_scope(0, len(self.toks), ns=[], cls=[], access="free")
        return self.model

    def _walk_scope(self, start: int, end: int, ns: list[str],
                    cls: list[str], access: str) -> None:
        """Parse declarations between token indexes [start, end)."""
        toks = self.toks
        i = start
        stmt_start = start
        while i < end:
            t = toks[i]
            text = t.text

            if t.kind == DIRECTIVE:
                i += 1
                stmt_start = i
                continue

            if text == "template":
                # Skip the parameter list: template < ... >
                if i + 1 < end and toks[i + 1].text == "<":
                    i = self._skip_angles(i + 1, end)
                    continue

            if text == "namespace":
                i = self._enter_namespace(i, end, ns, cls)
                stmt_start = i
                continue

            if text in ("class", "struct") and self._is_class_def(i, end):
                i = self._enter_class(i, end, ns, cls, text)
                stmt_start = i
                continue

            if text == "enum":
                i = self._skip_enum(i, end)
                stmt_start = i
                continue

            if text in ("public", "private", "protected") and \
                    i + 1 < end and toks[i + 1].text == ":" and cls:
                access = text
                i += 2
                stmt_start = i
                continue

            if text in (";", "}"):
                i += 1
                stmt_start = i
                continue

            if text == "{":
                # Stray block at namespace scope (e.g. extern "C").
                close = find_matching(toks, i, "{", "}")
                if close < 0:
                    return
                self._walk_scope(i + 1, close, ns, cls, access)
                i = close + 1
                stmt_start = i
                continue

            # Candidate function definition/declaration?
            fn_end = self._try_function(stmt_start, i, end, ns, cls, access)
            if fn_end is not None:
                i = fn_end
                stmt_start = i
                continue

            # Member/namespace-scope variable declaration?
            decl_end = self._try_decl(stmt_start, i, end, ns, cls,
                                      into_members=bool(cls))
            if decl_end is not None:
                i = decl_end
                stmt_start = i
                continue

            i += 1

    # -- scope helpers --------------------------------------------------

    def _skip_angles(self, i: int, end: int) -> int:
        """Skip a < ... > run starting at toks[i] == '<'."""
        depth = 0
        while i < end:
            t = self.toks[i].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif t in (";", "{"):
                return i  # malformed / not a template after all
            i += 1
        return end

    def _enter_namespace(self, i: int, end: int, ns: list[str],
                         cls: list[str]) -> int:
        toks = self.toks
        j = i + 1
        name_parts: list[str] = []
        while j < end and toks[j].text not in ("{", ";", "="):
            if toks[j].kind == ID:
                name_parts.append(toks[j].text)
            j += 1
        if j >= end or toks[j].text != "{":
            return j + 1  # alias or malformed
        close = find_matching(toks, j, "{", "}")
        if close < 0:
            return end
        self._walk_scope(j + 1, close,
                         ns + (name_parts or ["<anon>"]), cls, "free")
        return close + 1

    def _is_class_def(self, i: int, end: int) -> bool:
        """class/struct keyword followed (eventually) by a body '{'."""
        j = i + 1
        depth = 0
        while j < end:
            t = self.toks[j].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
            elif depth == 0:
                if t == "{":
                    return True
                if t in (";", ")", "="):
                    return False
            j += 1
        return False

    def _enter_class(self, i: int, end: int, ns: list[str],
                     cls: list[str], kw: str) -> int:
        toks = self.toks
        j = i + 1
        # Skip attributes / alignas, take the last ID before ':' or '{'.
        name = "<anon>"
        while j < end and toks[j].text not in ("{", ":", ";"):
            if toks[j].kind == ID and toks[j].text not in _QUALIFIERS:
                name = toks[j].text
            if toks[j].text == "<":  # explicit specialization args
                j = self._skip_angles(j, end)
                continue
            j += 1
        while j < end and toks[j].text != "{":
            j += 1
        if j >= end:
            return end
        close = find_matching(toks, j, "{", "}")
        if close < 0:
            return end
        default_access = "private" if kw == "class" else "public"
        self._walk_scope(j + 1, close, ns, cls + [name], default_access)
        return close + 1

    def _skip_enum(self, i: int, end: int) -> int:
        j = i
        while j < end and self.toks[j].text not in ("{", ";"):
            j += 1
        if j < end and self.toks[j].text == "{":
            close = find_matching(self.toks, j, "{", "}")
            return (close + 1) if close >= 0 else end
        return j + 1

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def _try_function(self, stmt_start: int, i: int, end: int,
                      ns: list[str], cls: list[str],
                      access: str) -> int | None:
        """If toks[i] opens a function's parameter list, parse through
        the body (or ';') and return the index just past it."""
        toks = self.toks
        if toks[i].text != "(":
            return None
        # Name is the identifier (or operator spelling) before '('.
        k = i - 1
        if k < stmt_start:
            return None
        name = None
        name_idx = k
        if toks[k].kind == ID:
            name = toks[k].text
        elif toks[k].kind == PUNCT or toks[k].text in (")", "]"):
            # operator<, operator(), operator[] ...
            back = k
            while back >= stmt_start and toks[back].text != "operator":
                back -= 1
            if back >= stmt_start:
                name = "operator" + "".join(
                    t.text for t in toks[back + 1 : i])
                name_idx = back
        if not name or name in KEYWORDS or name in NOT_CALLS:
            return None
        close = find_matching(toks, i, "(", ")")
        if close < 0 or close + 1 >= end:
            return None
        # After ')': qualifiers, trailing return, ctor init list, then
        # '{' (definition), ';' (declaration), or something else (not a
        # function at all — e.g. a call expression).
        j = close + 1
        saw_arrow = False
        while j < end:
            t = toks[j].text
            if t in ("const", "noexcept", "override", "final", "mutable",
                     "&", "&&", "throw", "requires"):
                if t in ("noexcept", "throw", "requires") and \
                        j + 1 < end and toks[j + 1].text == "(":
                    c2 = find_matching(toks, j + 1, "(", ")")
                    if c2 < 0:
                        return None
                    j = c2 + 1
                    continue
                j += 1
                continue
            if t == "->":
                saw_arrow = True
                j += 1
                continue
            if saw_arrow and t not in ("{", ";"):
                if t == "<":
                    j = self._skip_angles(j, end)
                else:
                    j += 1
                continue
            break
        if j >= end:
            return None
        body_open: int | None = None
        if toks[j].text == "{":
            body_open = j
        elif toks[j].text == ":" and cls and name == cls[-1]:
            body_open = self._skip_ctor_inits(j + 1, end)
            if body_open is None:
                return None
        elif toks[j].text == "=" and j + 1 < end and \
                toks[j + 1].text in ("default", "delete", "0"):
            return self._find_semi(j, end)
        elif toks[j].text == ";":
            # Pure declaration: record signature only when it looks like
            # one (return type tokens precede the name).
            if self._looks_like_signature(stmt_start, name_idx):
                self._record_function(name, stmt_start, name_idx, i, close,
                                      None, None, ns, cls, access)
            return j + 1
        else:
            return None
        body_close = find_matching(toks, body_open, "{", "}")
        if body_close < 0:
            return None
        if not self._looks_like_signature(stmt_start, name_idx) and \
                not (cls and name == cls[-1]) and \
                not name.startswith("operator") and \
                not (cls and name == "~" + cls[-1]):
            return None
        self._record_function(name, stmt_start, name_idx, i, close,
                              body_open, body_close, ns, cls, access)
        return body_close + 1

    def _looks_like_signature(self, stmt_start: int, name_idx: int) -> bool:
        """A definition needs a return type (or ctor/dtor handling)."""
        toks = self.toks
        k = stmt_start
        seen_type = False
        while k < name_idx:
            t = toks[k]
            if t.kind == ID and t.text not in _QUALIFIERS:
                seen_type = True
            if t.text in ("auto", "void", "double", "int", "bool"):
                seen_type = True
            k += 1
        # Destructor: ~Name().
        if not seen_type and name_idx > 0 and toks[name_idx - 1].text == "~":
            return True
        return seen_type

    def _skip_ctor_inits(self, j: int, end: int) -> int | None:
        """Parse `name(args), name{args}, ... {` -> index of body '{'."""
        toks = self.toks
        while j < end:
            while j < end and toks[j].kind != ID:
                if toks[j].text == "{":
                    return j  # empty-ish / lambda-free fallback
                j += 1
            j += 1  # past member name
            if j < end and toks[j].text == "<":
                j = self._skip_angles(j, end)
            if j >= end or toks[j].text not in ("(", "{"):
                return None
            open_t = toks[j].text
            close_t = ")" if open_t == "(" else "}"
            c = find_matching(toks, j, open_t, close_t)
            if c < 0:
                return None
            j = c + 1
            if j < end and toks[j].text == ",":
                j += 1
                continue
            if j < end and toks[j].text == "{":
                return j
            return None
        return None

    def _find_semi(self, j: int, end: int) -> int:
        while j < end and self.toks[j].text != ";":
            j += 1
        return j + 1

    def _record_function(self, name: str, stmt_start: int, name_idx: int,
                         paren_open: int, paren_close: int,
                         body_open: int | None, body_close: int | None,
                         ns: list[str], cls: list[str],
                         access: str) -> None:
        toks = self.toks
        # Return type: statement start .. name (minus qualifiers and any
        # Class:: qualification on out-of-line definitions).
        ret_toks = [t for t in toks[stmt_start:name_idx]
                    if t.text not in _QUALIFIERS]
        # Drop trailing `Class ::` qualification chains.
        while len(ret_toks) >= 2 and ret_toks[-1].text == "::":
            ret_toks = ret_toks[:-2]
        return_type = _type_text(ret_toks)
        # Out-of-line definition: fold `Class::name` into the qname.
        qcls = list(cls)
        k = name_idx - 1
        while k - 1 >= stmt_start and toks[k].text == "::" and \
                toks[k - 1].kind == ID:
            qcls.append(toks[k - 1].text)
            k -= 2
        qname = "::".join([p for p in ns if p != "<anon>"] + qcls + [name])
        params = self._parse_params(paren_open + 1, paren_close)
        fn = Function(
            qname=qname,
            name=name,
            line=toks[name_idx].line,
            return_type=return_type,
            params=params,
            access=access if (cls or qcls) else "free",
        )
        for p in params:
            fn.decls[p.name] = p.type_str
        # Seed member types for method bodies: Class::member entries.
        owner = qcls[-1] if qcls else None
        if owner:
            prefix = owner + "::"
            for key, ty in self.model.members.items():
                if key.startswith(prefix):
                    fn.decls.setdefault(key[len(prefix):], ty)
        if body_open is not None and body_close is not None:
            self._parse_body(fn, body_open + 1, body_close)
        self.model.functions.append(fn)

    def _parse_params(self, start: int, end: int) -> list[Param]:
        toks = self.toks
        params: list[Param] = []
        # Split on top-level commas.
        pieces: list[tuple[int, int]] = []
        depth = 0
        piece_start = start
        for j in range(start, end):
            t = toks[j].text
            if t in ("(", "[", "{", "<"):
                depth += 1
            elif t in (")", "]", "}", ">"):
                depth -= 1
            elif t == "," and depth == 0:
                pieces.append((piece_start, j))
                piece_start = j + 1
        if piece_start < end:
            pieces.append((piece_start, end))
        for a, b in pieces:
            span = toks[a:b]
            if not span:
                continue
            # Strip default argument.
            for j, t in enumerate(span):
                if t.text == "=":
                    span = span[:j]
                    break
            if not span:
                continue
            # Name = trailing identifier; type = the rest.
            if span[-1].kind == ID and span[-1].text not in KEYWORDS and \
                    len(span) > 1:
                name = span[-1].text
                ty = _type_text([t for t in span[:-1]
                                 if t.text not in _QUALIFIERS])
                params.append(Param(name=name, type_str=ty,
                                    line=span[-1].line))
            else:
                ty = _type_text([t for t in span
                                 if t.text not in _QUALIFIERS])
                if ty and ty != "void":
                    params.append(Param(name="", type_str=ty,
                                        line=span[0].line))
        return params

    # ------------------------------------------------------------------
    # Function bodies
    # ------------------------------------------------------------------

    def _parse_body(self, fn: Function, start: int, end: int) -> None:
        """Extract decls, range-fors, lambdas from [start, end)."""
        toks = self.toks
        lambda_spans: list[tuple[int, int]] = []
        i = start
        while i < end:
            t = toks[i]
            text = t.text

            # Nested lambda?
            if text == "[" and self._is_lambda_intro(i):
                span = self._parse_lambda(fn, i, end)
                if span is not None:
                    lambda_spans.append(span)
                    i = span[1] + 1
                    continue

            # Range-for.
            if text == "for" and i + 1 < end and toks[i + 1].text == "(":
                close = find_matching(toks, i + 1, "(", ")")
                if close > 0:
                    self._maybe_range_for(fn, i + 2, close)

            # Interesting declaration.
            decl_end = self._try_decl(i, i, end, [], [], into_members=False,
                                      fn=fn)
            if decl_end is not None:
                i = decl_end
                continue

            i += 1

        # Own tokens = body minus nested lambda bodies.
        own: list[Token] = []
        j = start
        spans = iter(lambda_spans)
        cur = next(spans, None)
        while j < end:
            if cur and j == cur[0]:
                j = cur[1] + 1
                cur = next(spans, None)
                continue
            own.append(toks[j])
            j += 1
        fn.tokens = own

    def _is_lambda_intro(self, i: int) -> bool:
        if i == 0:
            return True
        prev = self.toks[i - 1]
        if prev.kind == ID:
            return prev.text in ("return", "case") or prev.text in KEYWORDS
        return prev.text not in (")", "]")

    def _parse_lambda(self, parent: Function, i: int,
                      end: int) -> tuple[int, int] | None:
        toks = self.toks
        cap_close = find_matching(toks, i, "[", "]")
        if cap_close < 0:
            return None
        j = cap_close + 1
        params: list[Param] = []
        if j < end and toks[j].text == "(":
            pc = find_matching(toks, j, "(", ")")
            if pc < 0:
                return None
            params = self._parse_params(j + 1, pc)
            j = pc + 1
        # Skip mutable/noexcept/-> Type.
        saw_arrow = False
        while j < end and toks[j].text != "{":
            if toks[j].text == "->":
                saw_arrow = True
            elif not saw_arrow and toks[j].text not in (
                    "mutable", "noexcept", "constexpr"):
                return None  # not a lambda (e.g. attribute)
            j += 1
        if j >= end:
            return None
        body_close = find_matching(toks, j, "{", "}")
        if body_close < 0:
            return None
        lam = Function(
            qname=f"{parent.qname}::<lambda@{toks[i].line}>",
            name=f"<lambda@{toks[i].line}>",
            line=toks[i].line,
            return_type="",
            params=params,
            access=parent.access,
            is_lambda=True,
        )
        lam.decls.update(parent.decls)  # captures see enclosing decls
        for p in params:
            lam.decls[p.name] = p.type_str
        self._parse_body(lam, j + 1, body_close)
        self.model.functions.append(lam)
        return (i, body_close)

    def _maybe_range_for(self, fn: Function, start: int, end: int) -> None:
        toks = self.toks
        # Find top-level ':' (not '::', which lexes as one token).
        depth = 0
        colon = -1
        for j in range(start, end):
            t = toks[j].text
            if t in ("(", "[", "{", "<"):
                depth += 1
            elif t in (")", "]", "}", ">"):
                depth -= 1
            elif t == ":" and depth == 0:
                colon = j
                break
        if colon < 0:
            return
        expr = toks[colon + 1 : end]
        name = ""
        if len(expr) == 1 and expr[0].kind == ID:
            name = expr[0].text
        elif len(expr) == 3 and expr[0].text == "this" and \
                expr[1].text == "->":
            name = expr[2].text
        elif len(expr) == 3 and expr[0].kind == ID and \
                expr[1].text in (".", "->"):
            name = f"{expr[0].text}.{expr[2].text}"
        ty = fn.decls.get(name, "") if name else ""
        if not ty and "." in name:
            base, _, field = name.partition(".")
            base_ty = fn.decls.get(base, "")
            key = base_ty.split("<")[0].split("::")[-1] + "::" + field
            ty = self.model.members.get(key, "")
        fn.range_fors.append(
            RangeFor(expr_name=name, expr_type=ty, line=toks[start].line))

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _try_decl(self, stmt_start: int, i: int, end: int, ns: list[str],
                  cls: list[str], into_members: bool,
                  fn: Function | None = None) -> int | None:
        """Record container/RNG/pointer/double declarations starting at
        toks[i]; returns index past the declarator name, else None."""
        toks = self.toks
        t = toks[i]
        if t.kind != ID:
            return None
        # Statement must start here or with std:: / const prefix.
        head = t.text
        j = i
        type_start = i
        if head == "std" and j + 1 < end and toks[j + 1].text == "::":
            j += 2
            if j >= end or toks[j].kind != ID:
                return None
            head = toks[j].text
        if head in _CONTAINER_HEADS or head in _RNG_HEADS:
            k = j + 1
            if k < end and toks[k].text == "<":
                k = self._skip_angles(k, end)
            type_toks = toks[type_start:k]
            # Optional & / * after the template args.
            while k < end and toks[k].text in ("&", "*", "const"):
                type_toks = type_toks + [toks[k]]
                k += 1
            if k < end and toks[k].kind == ID and \
                    toks[k].text not in KEYWORDS:
                name = toks[k].text
                nxt = toks[k + 1].text if k + 1 < end else ""
                # Outside a body, `std::vector<T> name(` declares a
                # function: leave it to _try_function.
                if nxt == "(" and fn is None:
                    return None
                if nxt in (";", "=", "{", "(", ",", ")"):
                    ty = _type_text(type_toks)
                    self._record_decl(name, ty, toks[k].line, cls,
                                      into_members, fn)
                    # For RNG rule: record whether ctor got arguments.
                    if fn is not None and head in _RNG_HEADS:
                        has_args = False
                        if nxt in ("(", "{"):
                            close_t = ")" if nxt == "(" else "}"
                            c = find_matching(toks, k + 1, nxt, close_t)
                            has_args = c > k + 2
                        fn.decls[f"<rng-args:{name}>"] = \
                            "yes" if has_args else "no"
                        if not has_args:
                            fn.decls[f"<rng-line:{name}>"] = \
                                str(toks[k].line)
                    return k + 1
            return None
        # Raw pointer declaration: Type * name  (Type may be qualified).
        if head not in KEYWORDS or head in ("double", "float", "int",
                                            "char", "bool", "void"):
            k = j + 1
            while k < end and toks[k].text == "::" and k + 1 < end and \
                    toks[k + 1].kind == ID:
                k += 2
            if k < end and toks[k].text == "<":
                k = self._skip_angles(k, end)
            stars = 0
            while k < end and toks[k].text in ("*", "const"):
                if toks[k].text == "*":
                    stars += 1
                k += 1
            if stars and k < end and toks[k].kind == ID and \
                    toks[k].text not in KEYWORDS:
                nxt = toks[k + 1].text if k + 1 < end else ""
                if nxt in (";", "=", ",", ")", "{"):
                    ty = _type_text(toks[type_start:k])
                    self._record_decl(toks[k].text, ty, toks[k].line,
                                      cls, into_members, fn)
                    return k + 1
        return None

    def _record_decl(self, name: str, ty: str, line: int, cls: list[str],
                     into_members: bool, fn: Function | None) -> None:
        if fn is not None:
            fn.decls[name] = ty
        elif into_members and cls:
            self.model.members[f"{cls[-1]}::{name}"] = ty


def parse_file(abs_path: str, rel_path: str) -> FileModel:
    with open(abs_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    return _Parser(abs_path, rel_path, text).parse()
