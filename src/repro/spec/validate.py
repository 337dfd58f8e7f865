"""Semantic validation of specifications.

Checks that the refiners (and the simulator) rely on:

* every name referenced from a behavior resolves under lexical scoping;
* variable assignments (``:=``) target variables, signal assignments
  (``<=``) target signals;
* transitions reference sibling behaviors and only occur in sequential
  composites; conditions only read visible names;
* subprogram calls match the callee's arity, and arguments bound to
  ``out``/``inout`` parameters are lvalues on variables writable at the
  call site;
* behavior names are unique specification-wide (the paper addresses
  behaviors by bare name, e.g. ``B_CTRL`` targets ``B_NEW``);
* ``wait`` statements reference existing signals.

Validation raises the most specific :class:`repro.errors.SpecError`
subtype with a message naming the offending behavior.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from repro.errors import ScopeError, SpecError, TypeMismatchError
from repro.spec.behavior import Behavior, CompositeBehavior, LeafBehavior
from repro.spec.expr import Expr, Index, VarRef, free_variables
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
    lvalue_name,
)
from repro.spec.subprogram import Subprogram
from repro.spec.variable import StorageClass

__all__ = ["validate_specification"]


def validate_specification(spec: Specification) -> None:
    """Run every check; raises on the first violation."""
    spec.link()
    _check_unique_behavior_names(spec)
    _check_declarations(spec)
    for behavior in spec.behaviors():
        if isinstance(behavior, CompositeBehavior):
            _check_transitions(spec, behavior)
        elif isinstance(behavior, LeafBehavior):
            _check_body(spec, behavior, behavior.stmt_body, extra_names=set())
    for sub in spec.subprograms.values():
        _check_subprogram(spec, sub)


def _check_unique_behavior_names(spec: Specification) -> None:
    seen: Set[str] = set()
    for behavior in spec.behaviors():
        if behavior.name in seen:
            raise SpecError(
                f"behavior name {behavior.name!r} is declared more than once"
            )
        seen.add(behavior.name)


def _check_declarations(spec: Specification) -> None:
    global_names = [v.name for v in spec.variables]
    if len(set(global_names)) != len(global_names):
        raise SpecError(f"duplicate global declarations: {sorted(global_names)}")
    for behavior in spec.behaviors():
        local_names = [d.name for d in behavior.decls]
        if len(set(local_names)) != len(local_names):
            raise SpecError(
                f"behavior {behavior.name!r} has duplicate declarations: {local_names}"
            )


def _check_transitions(spec: Specification, composite: CompositeBehavior) -> None:
    if composite.is_concurrent:
        if composite.transitions:
            raise SpecError(
                f"concurrent composite {composite.name!r} carries transitions"
            )
        return
    child_names = {sub.name for sub in composite.subs}
    for t in composite.transitions:
        if t.source not in child_names:
            raise SpecError(
                f"transition {t!r} in {composite.name!r}: source is not a child"
            )
        if t.target is not None and t.target not in child_names:
            raise SpecError(
                f"transition {t!r} in {composite.name!r}: target is not a child"
            )
        if t.condition is not None:
            _check_expression_scope(spec, composite, t.condition, extra_names=set())


def _check_expression_scope(
    spec: Specification,
    scope: Behavior,
    expr: Expr,
    extra_names: Set[str],
) -> None:
    for name in free_variables(expr):
        if name in extra_names:
            continue
        spec.resolve(name, scope)  # raises ScopeError on failure
    for node in expr.walk():
        if isinstance(node, Index) and not isinstance(node.base, VarRef):
            raise SpecError(
                f"array access base must be a variable reference, got {node.base}"
            )


def _resolve_kind(
    spec: Specification,
    scope: Optional[Behavior],
    name: str,
    extra_names: Set[str],
) -> Optional[StorageClass]:
    """Storage class of ``name`` seen from ``scope``; ``None`` for names
    bound by the enclosing construct (loop variables, parameters)."""
    if name in extra_names:
        return None
    if scope is not None:
        return spec.resolve(name, scope).kind
    found = spec.global_variable(name)
    if found is None:
        raise ScopeError(f"name {name!r} is not declared")
    return found.kind


def _check_body(
    spec: Specification,
    scope: Behavior,
    stmts: Body,
    extra_names: Set[str],
) -> None:
    for stmt in stmts:
        _check_statement(spec, scope, stmt, extra_names)


def _check_statement(
    spec: Specification,
    scope: Behavior,
    stmt: Stmt,
    extra_names: Set[str],
) -> None:
    for expr in stmt.expressions():
        _check_expression_scope(spec, scope, expr, extra_names)

    if isinstance(stmt, Assign):
        target = lvalue_name(stmt.target)
        kind = _resolve_kind(spec, scope, target, extra_names)
        if kind is StorageClass.SIGNAL:
            raise TypeMismatchError(
                f"in {scope.name!r}: ':=' cannot target signal {target!r}; "
                "use a signal assignment '<='"
            )
        if kind is None and target in extra_names:
            raise SpecError(
                f"in {scope.name!r}: cannot assign to loop variable {target!r}"
            )
    elif isinstance(stmt, SignalAssign):
        target = lvalue_name(stmt.target)
        kind = _resolve_kind(spec, scope, target, extra_names)
        if kind is not StorageClass.SIGNAL:
            raise TypeMismatchError(
                f"in {scope.name!r}: '<=' must target a signal, "
                f"but {target!r} is not one"
            )
    elif isinstance(stmt, If):
        _check_body(spec, scope, stmt.then_body, extra_names)
        for _, arm in stmt.elifs:
            _check_body(spec, scope, arm, extra_names)
        _check_body(spec, scope, stmt.else_body, extra_names)
    elif isinstance(stmt, While):
        _check_body(spec, scope, stmt.loop_body, extra_names)
    elif isinstance(stmt, For):
        inner = set(extra_names)
        inner.add(stmt.variable)
        _check_body(spec, scope, stmt.loop_body, inner)
    elif isinstance(stmt, Wait):
        if stmt.on:
            for name in stmt.on:
                kind = _resolve_kind(spec, scope, name, extra_names)
                if kind is not StorageClass.SIGNAL:
                    raise TypeMismatchError(
                        f"in {scope.name!r}: wait on non-signal {name!r}"
                    )
    elif isinstance(stmt, CallStmt):
        _check_call(spec, scope, stmt, extra_names)
    elif isinstance(stmt, Null):
        pass
    else:
        raise SpecError(f"unknown statement node {stmt!r}")


def _check_call(
    spec: Specification,
    scope: Behavior,
    stmt: CallStmt,
    extra_names: Set[str],
) -> None:
    callee = spec.subprograms.get(stmt.callee)
    if callee is None:
        raise SpecError(
            f"in {scope.name!r}: call to undeclared subprogram {stmt.callee!r}"
        )
    if len(stmt.args) != callee.arity:
        raise SpecError(
            f"in {scope.name!r}: {stmt.callee!r} expects {callee.arity} "
            f"argument(s), got {len(stmt.args)}"
        )
    for index in callee.out_param_indices():
        arg = stmt.args[index]
        if not isinstance(arg, (VarRef, Index)):
            raise SpecError(
                f"in {scope.name!r}: argument {index} of {stmt.callee!r} binds an "
                f"out parameter and must be an lvalue, got {arg}"
            )
        target = lvalue_name(arg)
        _resolve_kind(spec, scope, target, extra_names)


def _check_subprogram(spec: Specification, sub: Subprogram) -> None:
    """Subprogram bodies resolve against parameters, local declarations
    and the global scope only."""
    local_kind: Dict[str, StorageClass] = {p.name: StorageClass.VARIABLE for p in sub.params}
    local_kind.update({d.name: d.kind for d in sub.decls})

    def kind_of(name: str) -> StorageClass:
        if name in local_kind:
            return local_kind[name]
        found = spec.global_variable(name)
        if found is None:
            raise ScopeError(
                f"in subprogram {sub.name!r}: name {name!r} is not declared"
            )
        return found.kind

    _check_subprogram_stmts(spec, sub, kind_of, sub.stmt_body, set())


def _check_subprogram_stmts(
    spec: Specification,
    sub: Subprogram,
    kind_of: Callable[[str], StorageClass],
    stmts: Body,
    loop_vars: Set[str],
) -> None:
    # module level, not nested in _check_subprogram: a nested function
    # that calls itself holds itself through its closure cell, a
    # reference cycle only the garbage collector can free
    for stmt in stmts:
        for expr in stmt.expressions():
            for name in free_variables(expr):
                if name not in loop_vars:
                    kind_of(name)
        if isinstance(stmt, Assign):
            target = lvalue_name(stmt.target)
            if target not in loop_vars and kind_of(target) is StorageClass.SIGNAL:
                raise TypeMismatchError(
                    f"in subprogram {sub.name!r}: ':=' targets signal {target!r}"
                )
        elif isinstance(stmt, SignalAssign):
            target = lvalue_name(stmt.target)
            if target in loop_vars or kind_of(target) is not StorageClass.SIGNAL:
                raise TypeMismatchError(
                    f"in subprogram {sub.name!r}: '<=' targets non-signal "
                    f"{target!r}"
                )
        elif isinstance(stmt, CallStmt):
            callee = spec.subprograms.get(stmt.callee)
            if callee is None:
                raise SpecError(
                    f"in subprogram {sub.name!r}: call to undeclared "
                    f"subprogram {stmt.callee!r}"
                )
            if len(stmt.args) != callee.arity:
                raise SpecError(
                    f"in subprogram {sub.name!r}: {stmt.callee!r} expects "
                    f"{callee.arity} argument(s), got {len(stmt.args)}"
                )
        if isinstance(stmt, For):
            _check_subprogram_stmts(
                spec, sub, kind_of, stmt.loop_body, loop_vars | {stmt.variable}
            )
        else:
            for nested in stmt.child_bodies():
                _check_subprogram_stmts(spec, sub, kind_of, nested, loop_vars)
