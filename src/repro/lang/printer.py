"""Pretty-printer: IR -> textual SpecCharts-like source.

The printed form is the library's concrete syntax: it is what
:mod:`repro.lang.parser` parses back (round-trip tested), and its line
count is the specification-size metric of the paper's Figure 10
("# lines in the refined specification").

Layout rules are deterministic — two-space indentation, one declaration
or statement per line — so sizes are comparable across refinements.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from repro.errors import SpecError
from repro.spec.behavior import Behavior, CompositeBehavior, LeafBehavior
from repro.spec.expr import COMPARISON_OPS, BinOp, Const, Expr, Index, UnaryOp, VarRef
from repro.spec.specification import Specification
from repro.spec.stmt import (
    Assign,
    Body,
    CallStmt,
    For,
    If,
    Null,
    SignalAssign,
    Stmt,
    Wait,
    While,
)
from repro.spec.subprogram import Subprogram
from repro.spec.types import (
    ArrayType,
    BitVectorType,
    BoolType,
    DataType,
    EnumType,
    IntType,
)
from repro.spec.variable import Role, Variable

__all__ = [
    "print_specification",
    "print_specification_with_map",
    "print_expr",
    "print_behavior",
    "print_type",
    "LineRecord",
    "LineMap",
]

_INDENT = "  "


# -- line map -----------------------------------------------------------------


class LineRecord(NamedTuple):
    """Attribution of one printed source line.

    ``node`` is the most specific IR object the line renders (a
    statement, declaration, behavior, subprogram or transition — or
    ``None`` for blanks); ``owner`` is the enclosing behavior or
    subprogram, if any.
    """

    line_no: int
    text: str
    kind: str
    node: object
    owner: object


class LineMap:
    """line number (1-based) -> :class:`LineRecord` for one rendering."""

    def __init__(self, records: List[LineRecord]):
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def record(self, line_no: int) -> LineRecord:
        if not 1 <= line_no <= len(self.records):
            raise SpecError(
                f"line {line_no} out of range (1..{len(self.records)})"
            )
        return self.records[line_no - 1]


class _Sink(list):
    """Plain output target: a list of lines with no-op attribution."""

    def mark(self, node, kind: str) -> None:
        pass

    def push_owner(self, owner) -> None:
        pass

    def pop_owner(self) -> None:
        pass


class _MapSink(_Sink):
    """Output target that records per-line attribution as it appends."""

    def __init__(self):
        super().__init__()
        self._node = None
        self._kind = "text"
        self._owners: List[object] = []
        #: (node, kind, owner) parallel to the line list
        self.marks: List[Tuple[object, str, object]] = []

    def mark(self, node, kind: str) -> None:
        self._node = node
        self._kind = kind

    def push_owner(self, owner) -> None:
        self._owners.append(owner)

    def pop_owner(self) -> None:
        self._owners.pop()

    def append(self, text: str) -> None:
        super().append(text)
        owner = self._owners[-1] if self._owners else None
        if not text.strip():
            self.marks.append((None, "blank", owner))
        else:
            self.marks.append((self._node, self._kind, owner))

    def line_map(self) -> LineMap:
        records = [
            LineRecord(i + 1, text, kind, node, owner)
            for i, (text, (node, kind, owner)) in enumerate(zip(self, self.marks))
        ]
        return LineMap(records)


# -- expressions --------------------------------------------------------------

#: Binding strength per operator, loosest first (VHDL-flavoured).
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "=": 3,
    "/=": 3,
    "<": 3,
    "<=": 3,
    ">": 3,
    ">=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
    "mod": 5,
}


def print_expr(expr: Expr) -> str:
    """Render an expression with minimal parentheses."""
    return _expr(expr, 0)


def _fold_negation(expr: Expr) -> Expr:
    """Collapse negation chains over non-negative integer literals:
    ``-(c)`` becomes the literal ``-c`` and ``-(-0)`` becomes ``0``.
    The parser folds ``- INT`` the same way, so without this a printed
    negation of a literal would re-parse to a different tree ('-0' in
    particular must print as '0' to re-parse stably)."""
    if not (isinstance(expr, UnaryOp) and expr.op == "-"):
        return expr
    operand = _fold_negation(expr.operand)
    if (
        isinstance(operand, Const)
        and isinstance(operand.value, int)
        and not isinstance(operand.value, bool)
        and operand.value >= 0
    ):
        return Const(-operand.value)
    if operand is not expr.operand:
        return UnaryOp("-", operand)
    return expr


def _expr(expr: Expr, parent_level: int) -> str:
    if isinstance(expr, Const):
        text = _literal(expr.value)
        if (
            isinstance(expr.value, int)
            and not isinstance(expr.value, bool)
            and expr.value < 0
        ):
            # a negative literal binds like a unary minus: '-(-12)' and
            # 'abs (-17)' need the parentheses ('--12' would lex as a
            # comment, 'abs -17' re-parses as abs applied to a unary op)
            return f"({text})" if parent_level > 6 else text
        return text
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, Index):
        return f"{_expr(expr.base, 99)}[{_expr(expr.index_expr, 0)}]"
    if isinstance(expr, UnaryOp):
        folded = _fold_negation(expr)
        if not isinstance(folded, UnaryOp):
            return _expr(folded, parent_level)
        expr = folded
        # operand at level 7 so a nested unary/binary is parenthesised;
        # '-(-x)' in particular must never print as '--x' (a comment)
        inner = _expr(expr.operand, 7)
        text = f"{expr.op} {inner}" if expr.op.isalpha() else f"{expr.op}{inner}"
        return f"({text})" if parent_level > 6 else text
    if isinstance(expr, BinOp):
        level = _PRECEDENCE[expr.op]
        # comparisons are non-associative in the grammar, so a comparison
        # operand of a comparison needs parentheses on both sides; for
        # associative operators only the right side does (preserves the
        # IR's left-associative tree)
        left_level = level + 1 if expr.op in COMPARISON_OPS else level
        left = _expr(expr.left, left_level)
        right = _expr(expr.right, level + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if parent_level > level else text
    raise SpecError(f"cannot print expression {expr!r}")


def _literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, tuple):
        return "(" + ", ".join(_literal(v) for v in value) + ")"
    raise SpecError(f"cannot print literal {value!r}")


# -- types ---------------------------------------------------------------------


def print_type(dtype: DataType) -> str:
    """Render a type in the concrete syntax."""
    if isinstance(dtype, BoolType):
        return "boolean"
    if isinstance(dtype, IntType):
        keyword = "integer" if dtype.signed else "natural"
        return f"{keyword}<{dtype.width}>"
    if isinstance(dtype, BitVectorType):
        return f"bits<{dtype.width}>"
    if isinstance(dtype, ArrayType):
        return f"array<{print_type(dtype.element)}, {dtype.length}>"
    if isinstance(dtype, EnumType):
        return dtype.name
    raise SpecError(f"cannot print type {dtype!r}")


# -- declarations ---------------------------------------------------------------


def _decl_line(var: Variable) -> str:
    role = ""
    if var.role is Role.INPUT:
        role = "input "
    elif var.role is Role.OUTPUT:
        role = "output "
    keyword = "signal" if var.is_signal else "variable"
    line = f"{role}{keyword} {var.name} : {print_type(var.dtype)}"
    if var.init is not None:
        line += f" := {_literal(var.init)}"
    line += ";"
    if var.doc:
        line += f"  -- {var.doc}"
    return line


# -- statements -------------------------------------------------------------------


def _emit_body(lines: _Sink, stmts: Body, depth: int) -> None:
    if not stmts:
        lines.append(_INDENT * depth + "null;")
        return
    for stmt in stmts:
        _emit_stmt(lines, stmt, depth)


def _emit_stmt(lines: _Sink, stmt: Stmt, depth: int) -> None:
    pad = _INDENT * depth
    lines.mark(stmt, "stmt")
    if isinstance(stmt, Assign):
        lines.append(f"{pad}{print_expr(stmt.target)} := {print_expr(stmt.value)};")
    elif isinstance(stmt, SignalAssign):
        lines.append(f"{pad}{print_expr(stmt.target)} <= {print_expr(stmt.value)};")
    elif isinstance(stmt, If):
        lines.append(f"{pad}if {print_expr(stmt.cond)} then")
        _emit_body(lines, stmt.then_body, depth + 1)
        for cond, arm in stmt.elifs:
            lines.mark(stmt, "stmt")
            lines.append(f"{pad}elsif {print_expr(cond)} then")
            _emit_body(lines, arm, depth + 1)
        if stmt.else_body:
            lines.mark(stmt, "stmt")
            lines.append(f"{pad}else")
            _emit_body(lines, stmt.else_body, depth + 1)
        lines.mark(stmt, "stmt")
        lines.append(f"{pad}end if;")
    elif isinstance(stmt, While):
        expect = (
            f" expect {stmt.expected_iterations}"
            if stmt.expected_iterations is not None
            else ""
        )
        lines.append(f"{pad}while {print_expr(stmt.cond)}{expect} loop")
        _emit_body(lines, stmt.loop_body, depth + 1)
        lines.mark(stmt, "stmt")
        lines.append(f"{pad}end loop;")
    elif isinstance(stmt, For):
        lines.append(
            f"{pad}for {stmt.variable} in {print_expr(stmt.start)} "
            f"to {print_expr(stmt.stop)} loop"
        )
        _emit_body(lines, stmt.loop_body, depth + 1)
        lines.mark(stmt, "stmt")
        lines.append(f"{pad}end loop;")
    elif isinstance(stmt, Wait):
        if stmt.until is not None:
            lines.append(f"{pad}wait until {print_expr(stmt.until)};")
        elif stmt.on:
            lines.append(f"{pad}wait on {', '.join(stmt.on)};")
        else:
            lines.append(f"{pad}wait for {stmt.delay};")
    elif isinstance(stmt, CallStmt):
        args = ", ".join(print_expr(a) for a in stmt.args)
        lines.append(f"{pad}{stmt.callee}({args});")
    elif isinstance(stmt, Null):
        lines.append(f"{pad}null;")
    else:
        raise SpecError(f"cannot print statement {stmt!r}")


# -- behaviors ----------------------------------------------------------------------


def print_behavior(behavior: Behavior, depth: int = 0) -> str:
    """Render one behavior subtree."""
    lines = _Sink()
    _emit_behavior(lines, behavior, depth)
    return "\n".join(lines)


def _emit_behavior(lines: _Sink, behavior: Behavior, depth: int) -> None:
    pad = _INDENT * depth
    daemon = "daemon " if behavior.daemon else ""
    lines.push_owner(behavior)
    lines.mark(behavior, "behavior")
    if isinstance(behavior, LeafBehavior):
        lines.append(f"{pad}behavior {behavior.name} is {daemon}leaf")
        for decl in behavior.decls:
            lines.mark(decl, "decl")
            lines.append(_INDENT * (depth + 1) + _decl_line(decl))
        lines.mark(behavior, "behavior")
        lines.append(f"{pad}begin")
        _emit_body(lines, behavior.stmt_body, depth + 1)
        lines.mark(behavior, "behavior")
        lines.append(f"{pad}end behavior;")
        lines.pop_owner()
        return
    if not isinstance(behavior, CompositeBehavior):
        raise SpecError(f"cannot print behavior {behavior!r}")
    mode = "sequential" if behavior.is_sequential else "concurrent"
    lines.append(f"{pad}behavior {behavior.name} is {daemon}{mode}")
    inner = depth + 1
    for decl in behavior.decls:
        lines.mark(decl, "decl")
        lines.append(_INDENT * inner + _decl_line(decl))
    if behavior.is_sequential and behavior.initial != behavior.subs[0].name:
        lines.mark(behavior, "behavior")
        lines.append(_INDENT * inner + f"initial {behavior.initial};")
    if behavior.transitions:
        lines.mark(behavior, "behavior")
        lines.append(_INDENT * inner + "transitions")
        for t in behavior.transitions:
            target = t.target if t.target is not None else "complete"
            if t.condition is not None:
                arc = f"{t.source} : ({print_expr(t.condition)}) -> {target};"
            else:
                arc = f"{t.source} -> {target};"
            lines.mark(t, "transition")
            lines.append(_INDENT * (inner + 1) + arc)
    for sub in behavior.subs:
        _emit_behavior(lines, sub, inner)
    lines.mark(behavior, "behavior")
    lines.append(f"{pad}end behavior;")
    lines.pop_owner()


# -- subprograms ----------------------------------------------------------------------


def _emit_subprogram(lines: _Sink, sub: Subprogram, depth: int) -> None:
    pad = _INDENT * depth
    params = ", ".join(
        f"{p.name} : {p.direction.value} {print_type(p.dtype)}" for p in sub.params
    )
    lines.push_owner(sub)
    lines.mark(sub, "subprogram")
    lines.append(f"{pad}procedure {sub.name}({params}) is")
    for decl in sub.decls:
        lines.mark(decl, "decl")
        lines.append(_INDENT * (depth + 1) + _decl_line(decl))
    lines.mark(sub, "subprogram")
    lines.append(f"{pad}begin")
    _emit_body(lines, sub.stmt_body, depth + 1)
    lines.mark(sub, "subprogram")
    lines.append(f"{pad}end procedure;")
    lines.pop_owner()


# -- specifications ----------------------------------------------------------------------


def print_specification(spec: Specification) -> str:
    """Render the whole specification as source text."""
    return _print_specification(spec, _Sink())


def print_specification_with_map(spec: Specification) -> Tuple[str, LineMap]:
    """Render a specification *and* attribute every line to the IR node
    it prints — the substrate of ``repro explain``.  The text is
    byte-identical to :func:`print_specification`."""
    sink = _MapSink()
    text = _print_specification(spec, sink)
    return text, sink.line_map()


def _print_specification(spec: Specification, lines: _Sink) -> str:
    lines.mark(spec, "spec")
    if spec.doc:
        for doc_line in spec.doc.strip().splitlines():
            lines.append(f"-- {doc_line.strip()}")
    lines.append(f"specification {spec.name} is")

    enums = _collect_enums(spec)
    for enum in enums:
        literals = ", ".join(f"'{lit}'" for lit in enum.literals)
        lines.mark(enum, "type")
        lines.append(_INDENT + f"type {enum.name} is ({literals});")

    for var in spec.variables:
        lines.mark(var, "decl")
        lines.append(_INDENT + _decl_line(var))
    if spec.variables or enums:
        lines.append("")
    for sub in spec.subprograms.values():
        _emit_subprogram(lines, sub, 1)
        lines.append("")
    _emit_behavior(lines, spec.top, 1)
    lines.mark(spec, "spec")
    lines.append("end specification;")
    return "\n".join(lines) + "\n"


def _collect_enums(spec: Specification) -> List[EnumType]:
    """Every distinct enum type used anywhere in the specification,
    in first-seen order (they need a type declaration in the text)."""
    seen: dict = {}

    def visit(dtype: DataType) -> None:
        while isinstance(dtype, ArrayType):
            dtype = dtype.element
        if isinstance(dtype, EnumType) and dtype.name not in seen:
            seen[dtype.name] = dtype

    for _, var in spec.all_declared_variables():
        visit(var.dtype)
    for sub in spec.subprograms.values():
        for param in sub.params:
            visit(param.dtype)
        for decl in sub.decls:
            visit(decl.dtype)
    return list(seen.values())
