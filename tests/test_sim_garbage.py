"""A simulator run must leave nothing for the cycle collector.

Objects that only Python's cyclic garbage collector can free cost CPU
in every collection that walks them; a campaign that simulates
thousands of runs spent about a quarter of its time there while each
refined run left tens of thousands of such objects.  These tests run
and drop simulators with the collector disabled and
``gc.DEBUG_SAVEALL`` set, so every object that only a collection could
free lands in ``gc.garbage`` and is counted.  The count must be zero:
for fresh runs, re-runs, instrumented runs and dropped simulators, and
for validating and printing the refined specifications they run.
"""

import gc

import pytest

from repro.apps.medical import MEDICAL_INPUTS, all_designs, medical_specification
from repro.apps.workloads import default_registry
from repro.estimate.profile import profile_specification
from repro.models import ALL_MODELS
from repro.refine.refiner import Refiner
from repro.sim import Probe, Simulator

from test_compiled_eval import recursive_design


def cyclic_garbage(action) -> int:
    """How many objects only the cycle collector frees after ``action()``."""
    gc.collect()
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        count = len(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if was_enabled:
            gc.enable()
        gc.collect()  # free what DEBUG_SAVEALL kept
    return count


def fresh_run(spec, inputs):
    return lambda: Simulator(spec).run(inputs=dict(inputs))


def dropping(simulator):
    """An action that drops the last reference to ``simulator``."""
    holder = [simulator]
    return holder.clear


@pytest.fixture(scope="module")
def medical_refined():
    source = medical_specification()
    source.validate()
    return {
        (design, model.name): Refiner(source, partition, model).run()
        for design, partition in all_designs(source).items()
        for model in ALL_MODELS
    }


class TestRunsLeaveNoCycles:
    def test_every_medical_refined_design(self, medical_refined):
        counts = {
            cell: cyclic_garbage(fresh_run(refined.spec, MEDICAL_INPUTS))
            for cell, refined in medical_refined.items()
        }
        assert len(counts) == 12
        assert {cell: n for cell, n in counts.items() if n} == {}

    def test_functional_model(self, medical_refined):
        original = medical_refined[("Design1", "Model1")].original
        assert cyclic_garbage(fresh_run(original, MEDICAL_INPUTS)) == 0

    def test_count_does_not_grow_with_run_length(self, medical_refined):
        spec = medical_refined[("Design1", "Model4")].spec
        short = cyclic_garbage(fresh_run(spec, MEDICAL_INPUTS))
        long = cyclic_garbage(
            fresh_run(spec, dict(MEDICAL_INPUTS, num_cycles=6))
        )
        assert short == long == 0

    def test_one_refined_design_per_workload(self):
        counts = {}
        for workload in default_registry():
            source = workload.spec()
            partition = workload.designs(source)[workload.default_design]
            refined = Refiner(source, partition, ALL_MODELS[-1]).run()
            counts[workload.id] = cyclic_garbage(
                fresh_run(refined.spec, workload.default_inputs)
            )
        assert len(counts) == len(default_registry())
        assert {wid: n for wid, n in counts.items() if n} == {}

    def test_instrumented_runs(self, medical_refined):
        # cost_fn and probe wrap every compiled statement, waits included
        source = medical_specification()
        source.validate()
        partition = all_designs(source)["Design1"]
        assert cyclic_garbage(
            lambda: profile_specification(
                source, partition, inputs=dict(MEDICAL_INPUTS)
            )
        ) == 0
        refined = medical_refined[("Design1", "Model4")].spec
        assert cyclic_garbage(
            lambda: Simulator(
                refined, cost_fn=lambda behavior, stmt: 1e-9, probe=Probe()
            ).run(inputs=dict(MEDICAL_INPUTS))
        ) == 0


class TestReusedSimulator:
    def test_rerun_then_drop(self, medical_refined):
        simulator = Simulator(medical_refined[("Design2", "Model3")].spec)
        simulator.run(inputs=dict(MEDICAL_INPUTS))
        assert cyclic_garbage(
            lambda: simulator.run(inputs=dict(MEDICAL_INPUTS))
        ) == 0
        # the compiled closures and their run state form no cycle with
        # the simulator that caches them
        drop = dropping(simulator)
        del simulator
        assert cyclic_garbage(drop) == 0

    def test_recursive_subprogram_simulator(self):
        # a recursive call resolves its callee's body lazily; that must
        # not tie the closure cache to the simulator either
        simulator = Simulator(recursive_design())
        assert simulator.run().output_values() == {"out": 10}
        drop = dropping(simulator)
        del simulator
        assert cyclic_garbage(drop) == 0

    def test_result_survives_the_next_run(self, medical_refined):
        simulator = Simulator(medical_refined[("Design1", "Model2")].spec)
        first = simulator.run(inputs=dict(MEDICAL_INPUTS))
        outputs, trace = first.output_values(), first.output_trace()
        blocked = first.blocked()
        simulator.run(inputs=dict(MEDICAL_INPUTS, num_cycles=3))
        assert first.output_values() == outputs
        assert first.output_trace() == trace
        assert first.blocked() == blocked


class TestSpecificationPassesLeaveNoCycles:
    """Every campaign job validates and prints its refined spec; a
    recursive nested helper there once left one cycle per subprogram."""

    def test_validate(self, medical_refined):
        refined = medical_refined[("Design3", "Model4")]
        assert cyclic_garbage(refined.spec.validate) == 0

    def test_print(self, medical_refined):
        refined = medical_refined[("Design3", "Model4")]
        assert cyclic_garbage(refined.line_counts) == 0
