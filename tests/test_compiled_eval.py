"""Cached (compiled) evaluation must be indistinguishable from the
reference tree walker: same values, same error messages, same designs.

The compiled fast path (``Simulator(compile_cache=True)``, the default)
closes every expression/statement into a Python closure once; these
tests pin its behavior to the interpretive walker
(``compile_cache=False``), including the constant-operand fusions and
boolean refinements in :class:`repro.sim.eval.ExprCompiler`.
"""

import pytest

from repro.apps.medical import MEDICAL_INPUTS, all_designs, medical_specification
from repro.errors import SimulationError
from repro.models.impl_models import ALL_MODELS
from repro.refine.refiner import Refiner
from repro.sim import Simulator
from repro.sim.eval import Env, ExprCompiler, Frame, evaluate
from repro.sim.kernel import Kernel
from repro.spec.builder import (
    assign,
    call,
    conc,
    if_,
    leaf,
    sassign,
    spec,
    wait_for,
    wait_until,
)
from repro.spec.expr import BINARY_OPS, BinOp, Const, Index, UnaryOp, VarRef, var
from repro.spec.subprogram import Direction, Param, Subprogram
from repro.spec.types import int_type
from repro.spec.variable import Role, signal, variable


def make_env():
    kernel = Kernel()
    kernel.register_signal("sig", 3)
    frame = Frame("test")
    frame.declare_raw("x", 7)
    frame.declare_raw("y", -2)
    frame.declare_raw("zero", 0)
    frame.declare_raw("flag", True)
    frame.declare_raw("arr", (10, 20, 30))
    return Env(kernel, (frame,))


def parity_cases():
    x, y, sig, flag = VarRef("x"), VarRef("y"), VarRef("sig"), VarRef("flag")
    cases = []
    # every binary operator, variable and constant operand shapes
    for op in BINARY_OPS:
        if op in ("and", "or"):
            cases += [
                BinOp(op, flag, BinOp("<", y, Const(0))),
                BinOp(op, BinOp("=", x, Const(7)), flag),
            ]
        else:
            cases += [
                BinOp(op, x, y),  # both variable
                BinOp(op, x, Const(3)),  # fused constant right
                BinOp(op, Const(3), x),  # constant left
            ]
    for op in BINARY_OPS:
        if op in ("and", "or"):
            cases += [
                BinOp(op, Const(True), flag),  # constant boolean left
                BinOp(op, flag, Const(False)),  # constant boolean right
            ]
        else:
            cases += [BinOp(op, Const(3), Const(2))]  # both constant
    cases += [
        UnaryOp("-", x),
        UnaryOp("abs", y),
        UnaryOp("not", flag),
        UnaryOp("not", BinOp("<", x, Const(0))),  # boolean-typed operand
        UnaryOp("-", Const(5)),  # constant unary operands
        UnaryOp("abs", Const(-3)),
        UnaryOp("not", Const(False)),
        Index(VarRef("arr"), BinOp("-", x, Const(6))),
        Index(VarRef("arr"), Const(1)),  # constant index
        BinOp("+", sig, Const(1)),  # signal read
        Const(True),
        Const(42),
    ]
    return cases


class TestExpressionParity:
    @pytest.mark.parametrize("expr", parity_cases(), ids=str)
    def test_compiled_matches_walker(self, expr):
        env = make_env()
        compiled = ExprCompiler().compile(expr)
        assert compiled(env) == evaluate(expr, env)

    def test_compile_is_memoized_by_node(self):
        compiler = ExprCompiler()
        expr = BinOp("+", VarRef("x"), Const(1))
        assert compiler.compile(expr) is compiler.compile(expr)

    @pytest.mark.parametrize("op", ["/", "mod"])
    def test_zero_division_message_parity(self, op):
        expr = BinOp(op, VarRef("x"), VarRef("zero"))
        with pytest.raises(SimulationError) as compiled_error:
            ExprCompiler().compile(expr)(make_env())
        with pytest.raises(SimulationError) as walker_error:
            evaluate(expr, make_env())
        assert str(compiled_error.value) == str(walker_error.value)

    @pytest.mark.parametrize("op", ["/", "mod"])
    def test_const_zero_divisor_message_parity(self, op):
        # '/' and 'mod' have no constant-operand fast path precisely so
        # a literal zero divisor raises the walker's exact runtime error
        expr = BinOp(op, VarRef("x"), Const(0))
        with pytest.raises(SimulationError) as compiled_error:
            ExprCompiler().compile(expr)(make_env())
        with pytest.raises(SimulationError) as walker_error:
            evaluate(expr, make_env())
        assert str(compiled_error.value) == str(walker_error.value)

    @pytest.mark.parametrize("op", ["/", "mod"])
    def test_const_zero_divisor_not_folded_at_compile_time(self, op):
        # compiling must not evaluate the division: the error is a
        # runtime property of the expression, not a compile-time one
        expr = BinOp(op, VarRef("x"), Const(0))
        compiled = ExprCompiler().compile(expr)  # must not raise
        with pytest.raises(SimulationError):
            compiled(make_env())

    @pytest.mark.parametrize(
        "expr",
        [
            # bools are not numbers: the constant-operand fusion must
            # not treat a boolean literal as a numeric constant (Python
            # would happily compute x + True), and both strategies must
            # reject it with the same runtime type error
            BinOp("+", VarRef("x"), Const(True)),
            BinOp("+", VarRef("flag"), Const(1)),
            BinOp("*", Const(False), VarRef("x")),
        ],
        ids=str,
    )
    def test_bool_arithmetic_rejected_identically(self, expr):
        with pytest.raises(SimulationError) as compiled_error:
            ExprCompiler().compile(expr)(make_env())
        with pytest.raises(SimulationError) as walker_error:
            evaluate(expr, make_env())
        assert str(compiled_error.value) == str(walker_error.value)

    def test_unbound_name_message_parity(self):
        expr = VarRef("missing")
        with pytest.raises(SimulationError) as compiled_error:
            ExprCompiler().compile(expr)(make_env())
        with pytest.raises(SimulationError) as walker_error:
            evaluate(expr, make_env())
        assert str(compiled_error.value) == str(walker_error.value)

    def test_resolution_cache_is_per_env(self):
        compiled = ExprCompiler().compile(VarRef("x"))
        env_a, env_b = make_env(), make_env()
        assert compiled(env_a) == 7
        env_b.frames[0].slots["x"][1] = 100
        assert compiled(env_b) == 100  # no cross-env leakage
        assert compiled(env_a) == 7


def recursive_design():
    """``down(n, r)`` adds n, n-1, ..., 1 to ``r``, waiting one tick per
    level: a suspending subprogram that calls itself."""
    down = Subprogram(
        "down",
        params=[Param("n", int_type()), Param("r", int_type(), Direction.INOUT)],
        stmt_body=[
            if_(
                var("n") > 0,
                [
                    assign("r", var("r") + var("n")),
                    wait_for(1),
                    call("down", var("n") - 1, "r"),
                ],
            )
        ],
    )
    design = spec(
        "Recursive",
        leaf("A", call("down", 4, "out")),
        variables=[variable("out", int_type(), role=Role.OUTPUT, init=0)],
        subprograms=[down],
    )
    design.validate()
    return design


def run_both_modes(design_spec, inputs=None):
    cached = Simulator(design_spec, compile_cache=True).run(inputs=inputs)
    walked = Simulator(design_spec, compile_cache=False).run(inputs=inputs)
    return cached, walked


class TestSimulatorParity:
    def test_refined_medical_designs_match(self):
        source = medical_specification()
        source.validate()
        partition = all_designs(source)["Design1"]
        for model in (ALL_MODELS[0], ALL_MODELS[-1]):  # Model1 and Model4
            refined = Refiner(source, partition, model).run()
            cached, walked = run_both_modes(
                refined.spec, inputs=dict(MEDICAL_INPUTS)
            )
            assert cached.completed and walked.completed
            assert cached.output_values() == walked.output_values()
            assert cached.time == walked.time

    def test_runtime_error_message_parity(self):
        design = spec(
            "T",
            leaf("A", assign("q", var("x") / var("z"))),
            variables=[
                variable("x", int_type(), init=1),
                variable("z", int_type(), init=0),
                variable("q", int_type()),
            ],
        )
        design.validate()
        with pytest.raises(SimulationError) as cached_error:
            Simulator(design, compile_cache=True).run()
        with pytest.raises(SimulationError) as walker_error:
            Simulator(design, compile_cache=False).run()
        assert str(cached_error.value) == str(walker_error.value)

    def test_recursive_subprogram_matches_walker(self):
        design = recursive_design()
        cached, walked = run_both_modes(design)
        assert observable(cached) == observable(walked)
        assert cached.output_values() == {"out": 10}

    def test_rerun_reuses_statement_cache(self):
        design = spec(
            "T",
            leaf("A", assign("x", var("x") + 1)),
            variables=[variable("x", int_type(), init=0)],
        )
        design.validate()
        simulator = Simulator(design)
        first = simulator.run()
        cached_size = len(simulator._stmt_cache)
        assert cached_size > 0
        second = simulator.run()
        assert len(simulator._stmt_cache) == cached_size  # no recompile
        assert first.value_of("x") == second.value_of("x") == 1


def observable(result):
    """Everything a run exposes that the two modes must agree on."""
    return (
        result.output_values(),
        [(e.step, e.variable, e.value) for e in result.trace],
        result.steps,
        result.time,
        result.completed,
        result.blocked(),
    )


class TestSharedWaits:
    """A ``wait until`` whose free names are all signals builds one
    request per run and frame-owner chain, shared by every process that
    reaches it; these pin the sharing to the walker's semantics."""

    def test_two_processes_blocked_in_one_procedure_wait(self):
        sync = Subprogram("sync", stmt_body=[wait_until(var("go").eq(1))])
        hold = Subprogram("hold", stmt_body=[wait_until(var("stop").eq(1))])
        design = spec(
            "Shared",
            conc(
                "Top",
                [
                    leaf("A", call("sync"), assign("log", var("log") * 10 + 1)),
                    leaf("B", call("sync"), assign("log", var("log") * 10 + 2)),
                    leaf("C", wait_for(3), sassign("go", 1)),
                    # never released: blocked at quiescence
                    leaf("D1", call("hold"), assign("log", 0)),
                    leaf("D2", call("hold"), assign("log", 0)),
                ],
            ),
            variables=[
                variable("log", int_type(), role=Role.OUTPUT, init=0),
                signal("go", int_type(), init=0),
                signal("stop", int_type(), init=0),
            ],
            subprograms=[sync, hold],
        )
        design.validate()
        cached, walked = run_both_modes(design)
        assert observable(cached) == observable(walked)
        assert cached.output_values() == {"log": 12}
        assert cached.blocked() == ["Top", "D1", "D2"]
        # D1 and D2 wait on one shared request (the walker builds two)
        waits = {
            p.name: p._waiting_on for p in cached.kernel.blocked_processes()
        }
        assert waits["D1"] is waits["D2"]

    @pytest.mark.parametrize("first", ["P", "Q"])
    def test_shadowing_local_is_not_shared(self, first):
        # one Wait node in two leaves: in P ``s`` is the signal, in Q a
        # local that is already 1, so Q must not wait for the signal:
        # Q logs 2 at once, R logs 3 when it raises the signal, P logs 1
        # after it (a Q that waited for the signal would log after R)
        shared_wait = wait_until(var("s").eq(1))
        p = leaf("P", shared_wait, assign("log", var("log") * 10 + 1))
        q = leaf(
            "Q",
            shared_wait,
            assign("log", var("log") * 10 + 2),
            decls=[variable("s", int_type(), init=1)],
        )
        waiters = [p, q] if first == "P" else [q, p]
        design = spec(
            "Shadow",
            conc(
                "Top",
                waiters
                + [
                    leaf(
                        "R",
                        wait_for(3),
                        sassign("s", 1),
                        assign("log", var("log") * 10 + 3),
                    )
                ],
            ),
            variables=[
                variable("log", int_type(), role=Role.OUTPUT, init=0),
                signal("s", int_type(), init=0),
            ],
        )
        design.validate()
        cached, walked = run_both_modes(design)
        assert observable(cached) == observable(walked)
        assert cached.output_values() == {"log": 231}

