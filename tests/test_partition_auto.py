"""Tests for the automatic partitioners and their cost metrics."""

import pytest

from repro.apps.figures import figure2_partition, figure2_specification
from repro.apps.medical import medical_specification
from repro.errors import PartitionError
from repro.graph import AccessGraph
from repro.models import MODEL2
from repro.partition import (
    Partition,
    annealed_partition,
    balance_penalty,
    cut_weight,
    greedy_partition,
    kl_partition,
    movable_objects,
    partition_cost,
)
from repro.refine import Refiner
from repro.sim.equivalence import check_equivalence
from repro.spec.builder import assign, leaf, seq, spec as build_spec
from repro.spec.expr import var
from repro.spec.types import int_type
from repro.spec.variable import variable


@pytest.fixture(scope="module")
def fig2():
    spec = figure2_specification()
    spec.validate()
    graph = AccessGraph.from_specification(spec)
    return spec, graph


@pytest.fixture(scope="module")
def medical():
    spec = medical_specification()
    spec.validate()
    graph = AccessGraph.from_specification(spec)
    return spec, graph


class TestMetrics:
    def test_cut_weight_zero_for_single_component(self, fig2):
        spec, graph = fig2
        objects = movable_objects(spec, graph)
        single = Partition(spec, {obj: "ALL" for obj in objects})
        assert cut_weight(graph, single) == 0.0

    def test_cut_weight_positive_for_real_split(self, fig2):
        spec, graph = fig2
        assert cut_weight(graph, figure2_partition(spec)) > 0

    def test_balance_penalty_extremes(self, fig2):
        spec, graph = fig2
        objects = movable_objects(spec, graph)
        lopsided = Partition(spec, {obj: "A" for obj in objects})
        # force a second component so the fair share is total/2
        lopsided = lopsided.moved("v7", "B")
        assert balance_penalty(lopsided) > 0.3
        balanced = figure2_partition(spec)
        assert balance_penalty(balanced) < balance_penalty(lopsided)

    def test_partition_cost_composition(self, fig2):
        spec, graph = fig2
        partition = figure2_partition(spec)
        zero_balance = partition_cost(graph, partition, balance_weight=0.0)
        with_balance = partition_cost(graph, partition, balance_weight=1.0)
        assert with_balance >= zero_balance


class TestGreedy:
    def test_produces_valid_partition(self, fig2):
        spec, graph = fig2
        partition = greedy_partition(spec, graph=graph)
        assert partition.p >= 1
        for leaf in spec.leaf_behaviors():
            partition.component_of_behavior(leaf.name)  # must resolve

    def test_improves_on_round_robin_start(self, fig2):
        spec, graph = fig2
        objects = movable_objects(spec, graph)
        start = Partition(
            spec,
            {
                obj: ("SW", "HW")[index % 2]
                for index, obj in enumerate(objects)
            },
        )
        result = greedy_partition(spec, graph=graph)
        assert partition_cost(graph, result) <= partition_cost(graph, start)

    def test_requires_two_components(self, fig2):
        spec, graph = fig2
        with pytest.raises(PartitionError):
            greedy_partition(spec, components=("ONLY",), graph=graph)


class TestKL:
    def test_not_worse_than_greedy_seed(self, fig2):
        spec, graph = fig2
        greedy = greedy_partition(spec, graph=graph)
        kl = kl_partition(spec, graph=graph, seed_partition=greedy)
        assert partition_cost(graph, kl) <= partition_cost(graph, greedy) + 1e-9

    def test_standalone_run(self, medical):
        spec, graph = medical
        kl = kl_partition(spec, graph=graph, max_passes=3)
        assert set(kl.components()) <= {"SW", "HW"}


class TestAnnealing:
    def test_deterministic_for_fixed_seed(self, fig2):
        spec, graph = fig2
        a = annealed_partition(spec, graph=graph, seed=7, steps=400)
        b = annealed_partition(spec, graph=graph, seed=7, steps=400)
        assert a.assignment == b.assignment

    def test_different_seeds_may_differ(self, fig2):
        spec, graph = fig2
        a = annealed_partition(spec, graph=graph, seed=1, steps=400)
        b = annealed_partition(spec, graph=graph, seed=2, steps=400)
        # not asserting inequality (they may converge) but both valid
        assert partition_cost(graph, a) >= 0
        assert partition_cost(graph, b) >= 0

    def test_medical_annealing_beats_lopsided(self, medical):
        spec, graph = medical
        objects = movable_objects(spec, graph)
        lopsided = Partition(spec, {obj: "SW" for obj in objects})
        lopsided = lopsided.moved(objects[-1], "HW")
        annealed = annealed_partition(spec, graph=graph, steps=800)
        assert partition_cost(graph, annealed) < partition_cost(graph, lopsided)


class TestSeedAliasingRegression:
    """The partitioners must never mutate a caller's partition: the
    no-improvement path used to hand back the seed object itself with
    its ``name`` clobbered in place."""

    def test_kl_does_not_mutate_caller_seed(self, fig2):
        spec, graph = fig2
        # a KL fixpoint: re-running KL from it improves nothing, which
        # is exactly the path that used to return the seed renamed
        fixpoint = kl_partition(spec, graph=graph)
        seed = Partition(spec, fixpoint.assignment, name="caller-seed")
        result = kl_partition(spec, graph=graph, seed_partition=seed)
        assert seed.name == "caller-seed"
        assert result is not seed
        assert result.name == "kl"
        assert result.assignment == seed.assignment

    def test_annealed_does_not_mutate_caller_seed(self, fig2):
        spec, graph = fig2
        base = annealed_partition(spec, graph=graph, seed=3, steps=50)
        seed = Partition(spec, base.assignment, name="caller-seed")
        # zero steps: the walk never leaves the seed, so the returned
        # best IS the seed unless the partitioner clones it
        result = annealed_partition(
            spec, graph=graph, seed=3, steps=0, seed_partition=seed
        )
        assert seed.name == "caller-seed"
        assert result is not seed
        assert result.name == "annealed"
        assert result.assignment == seed.assignment

    def test_greedy_returns_named_clone(self, fig2):
        spec, graph = fig2
        assert greedy_partition(spec, graph=graph).name == "greedy"


class TestNamespaceCollision:
    """A variable named identically to a behavior used to collapse to
    one assignment key, silently co-assigning both objects."""

    def _collision_spec(self):
        design = build_spec(
            "T",
            seq(
                "Top",
                [
                    leaf("A", assign("A", var("A") + 1)),
                    leaf("B", assign("A", var("A") + 2)),
                ],
            ),
            variables=[variable("A", int_type(), init=0)],
        )
        # precondition of the bug: the validator accepts this spec
        design.validate()
        return design

    def test_movable_objects_rejects_shadowed_name(self):
        design = self._collision_spec()
        with pytest.raises(PartitionError) as err:
            movable_objects(design)
        assert err.value.objects == ("A",)
        assert "A" in str(err.value)

    @pytest.mark.parametrize(
        "algorithm", [greedy_partition, kl_partition, annealed_partition]
    )
    def test_partitioners_refuse_shadowed_names(self, algorithm):
        design = self._collision_spec()
        with pytest.raises(PartitionError) as err:
            algorithm(design)
        assert err.value.objects == ("A",)


class _NoLeafSpec:
    """Degenerate specification view: no leaves, no behaviors.  The
    builder cannot produce one (composites require children), but the
    partitioners only consume these two iterators, so this pins the
    guard for any caller that hands over an emptied move space."""

    def leaf_behaviors(self):
        return iter(())

    def behaviors(self):
        return iter(())


class _NoVariableGraph:
    variable_names = frozenset()


class TestEmptyMoveSpace:
    """An empty move space used to crash annealing with a bare
    ``IndexError`` from ``rng.choice`` and let greedy/KL return an
    invalid empty-assignment partition; all three now refuse with a
    structured error."""

    @pytest.mark.parametrize(
        "algorithm", [greedy_partition, kl_partition, annealed_partition]
    )
    def test_raises_structured_partition_error(self, algorithm):
        with pytest.raises(PartitionError) as err:
            algorithm(_NoLeafSpec(), graph=_NoVariableGraph())
        assert "no movable objects" in str(err.value)


class TestAutoPartitionFeedsRefinement:
    def test_greedy_partition_refines_and_is_equivalent(self, fig2):
        """The full flow the paper describes: partition automatically,
        refine, verify by co-simulation."""
        spec, graph = fig2
        partition = greedy_partition(spec, graph=graph)
        if partition.p < 2:
            pytest.skip("greedy collapsed to one component")
        refined = Refiner(spec, partition, MODEL2).run()
        check_equivalence(refined, inputs={"stimulus": 4}).raise_if_mismatched()


class TestCoarseSeed:
    """A valid seed that assigns a composite instead of its leaves used
    to crash KL and annealing with a bare ``KeyError`` on the first
    leaf missing from the seed's assignment."""

    def _coarse_seed(self, spec, graph):
        return Partition(
            spec,
            {"BVM": "SW", **{v: "HW" for v in sorted(graph.variable_names)}},
            name="coarse",
        )

    @pytest.mark.parametrize("algorithm", [kl_partition, annealed_partition])
    def test_walk_starts_from_a_coarse_seed(self, medical, algorithm):
        spec, graph = medical
        seed = self._coarse_seed(spec, graph)
        result = algorithm(spec, graph=graph, seed_partition=seed)
        assert set(movable_objects(spec, graph)) <= set(result.assignment)
        assert set(result.components()) <= {"SW", "HW"}
        assert partition_cost(
            graph, result, expected_components=2
        ) <= partition_cost(graph, seed, expected_components=2)
        assert seed.assignment == self._coarse_seed(spec, graph).assignment

    def test_fill_in_keeps_the_seed_cost(self, medical):
        """With no steps the walk returns the filled-in seed, which
        resolves every behavior to the component it had before."""
        spec, graph = medical
        seed = self._coarse_seed(spec, graph)
        result = annealed_partition(
            spec, graph=graph, steps=0, seed_partition=seed
        )
        for leaf in spec.leaf_behaviors():
            assert result.assignment[leaf.name] == "SW"
        assert partition_cost(graph, result) == partition_cost(graph, seed)
