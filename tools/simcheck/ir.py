"""Frontend-neutral semantic model shared by every simcheck rule.

Both frontends (clang.cindex and the built-in parser) lower a
translation unit to this IR; rules only ever see the IR, so each rule
is written once and behaves identically under either frontend.

The model is deliberately small — it carries exactly what the rules
need: functions with parameter/return types and access, variable
declarations with textual types, range-for statements, and the raw
token stream for pattern rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cxxlex import Token


@dataclass
class Param:
    name: str
    type_str: str  # normalized textual type, e.g. "double", "const Foo *"
    line: int


@dataclass
class RangeFor:
    """`for (decl : expr)` — expr_name is the iterated entity if it is a
    simple identifier / member access, else ''."""

    expr_name: str
    expr_type: str  # resolved type when known, else ''
    line: int


@dataclass
class Function:
    """A function definition (or lambda) with its analyzed body."""

    qname: str  # qualified, e.g. charllm::net::FlowNetwork::recompute
    name: str  # unqualified
    line: int
    return_type: str
    params: list[Param] = field(default_factory=list)
    access: str = "free"  # public | protected | private | free
    is_lambda: bool = False
    tokens: list[Token] = field(default_factory=list)  # body tokens
    decls: dict[str, str] = field(default_factory=dict)  # name -> type
    range_fors: list[RangeFor] = field(default_factory=list)


@dataclass
class FileModel:
    """Everything simcheck knows about one source file."""

    path: str  # repo-relative posix path
    is_header: bool
    tokens: list[Token] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)
    # Class/struct member variables: "Class::member" -> type string.
    members: dict[str, str] = field(default_factory=dict)


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str
    snippet: str
    function: str = ""
    suppressed: bool = False
    allow_key: str = ""  # allowlist entry that suppressed it

    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "function": self.function,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
            "allow_key": self.allow_key,
        }
