"""The compiled partition objective is exact.

:class:`PartitionObjective` prices plain assignments from tables built
once per walk.  The partitioners' decisions (Metropolis tests, ``1e-12``
improvement thresholds, KL tie-breaks) are only reproducible if every
cost it returns is the *same float* the per-:class:`Partition` formula
gives, so these properties compare with ``==`` against that formula,
kept below as an independent oracle.  Assignments are drawn over every
registry workload and over fuzz-generated specifications, with
composite-keyed covers, unassigned root-path composites (the
initial-child fallback), irregular channel weights, arbitrary balance
weights and ``expected_components=None``.
"""

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.apps.workloads import default_registry
from repro.fuzz.generator import GeneratorConfig, generate_case
from repro.graph.access_graph import AccessGraph
from repro.partition.metrics import PartitionObjective
from repro.partition.partition import Partition
from repro.spec.behavior import LeafBehavior
from repro.spec.visitor import count_statements

# -- the oracle: the objective as a direct walk over one Partition ----------


def reference_cut_weight(graph, partition):
    total = 0.0
    for channel in graph.data_channels():
        behavior_side = partition.effective_component_of_behavior(channel.behavior)
        variable_side = partition.component_of_variable(channel.variable)
        if behavior_side != variable_side:
            total += channel.weight
    return total


def reference_load_by_component(partition):
    load = {c: 0 for c in partition.components()}
    for leaf in partition.spec.leaf_behaviors():
        component = partition.effective_component_of_behavior(leaf.name)
        load[component] = load.get(component, 0) + count_statements(leaf.stmt_body)
    return load


def reference_balance_penalty(partition, expected_components=None):
    load = reference_load_by_component(partition)
    total = sum(load.values())
    if total == 0:
        return 0.0
    biggest = max(load.values())
    fair_share = total / max(expected_components or len(load), 1)
    return (biggest - fair_share) / total


def reference_cost(graph, partition, balance_weight, expected_components):
    total_weight = sum(c.weight for c in graph.data_channels()) or 1.0
    return (
        reference_cut_weight(graph, partition) / total_weight
        + balance_weight * reference_balance_penalty(partition, expected_components)
    )


# -- drawn assignments --------------------------------------------------------

WORKLOADS = default_registry().names()
FUZZ_CONFIG = GeneratorConfig(budget=14)
COMPONENT_POOL = ("SW", "HW", "DSP")


@lru_cache(maxsize=None)
def workload_case(workload_id):
    spec = default_registry().get(workload_id).spec()
    return spec, AccessGraph.from_specification(spec)


@lru_cache(maxsize=None)
def fuzz_case(seed):
    spec = generate_case(seed, FUZZ_CONFIG).spec
    return spec, AccessGraph.from_specification(spec)


def draw_cover(data, node, keys):
    """Behavior keys under ``node`` such that every leaf resolves:
    assign the node itself, or (composites only) cover each child.
    Leaving a composite unassigned is what exercises the initial-child
    fallback for the channels a composite's transitions own."""
    if isinstance(node, LeafBehavior) or data.draw(st.booleans()):
        keys.append(node.name)
        return
    for child in node.subs:
        draw_cover(data, child, keys)


def draw_assignment(data, spec, graph):
    components = COMPONENT_POOL[: data.draw(st.integers(1, 3))]
    keys = []
    draw_cover(data, spec.top, keys)
    # extra keys nested under an assigned ancestor override it
    others = sorted(b.name for b in spec.behaviors() if b.name not in keys)
    if others:
        keys += data.draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
    keys += sorted(graph.variable_names)
    keys = data.draw(st.permutations(keys))
    return {key: data.draw(st.sampled_from(components)) for key in keys}


balance_weights = st.one_of(
    st.just(0.35),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
expected = st.sampled_from([None, 0, 1, 2, 3])


def irregular_weights(spec, factor):
    """A fresh graph whose channel weights are not small dyadic
    numbers (the derived weights usually are, and sums of those are
    exact in any order), so a reordered cut sum shows in the bits."""
    graph = AccessGraph.from_specification(spec)
    for index, channel in enumerate(graph.data_channels()):
        channel.weight = channel.weight * factor + (index + 1) / 7
    return graph


def check_exact(data, spec, graph):
    if data.draw(st.booleans()):
        graph = irregular_weights(spec, data.draw(st.floats(0.01, 10.0)))
    balance_weight = data.draw(balance_weights)
    expected_components = data.draw(expected)
    objective = PartitionObjective(spec, graph, balance_weight, expected_components)
    # several assignments through one objective: the resolution map must
    # follow every key-set change
    for _ in range(data.draw(st.integers(1, 3))):
        assignment = draw_assignment(data, spec, graph)
        partition = Partition(spec, assignment)
        assert objective.cost(assignment) == reference_cost(
            graph, partition, balance_weight, expected_components
        )
        assert objective.cut(assignment) == reference_cut_weight(graph, partition)
        assert list(objective.load(assignment).items()) == list(
            reference_load_by_component(partition).items()
        )
        assert objective.penalty(assignment) == reference_balance_penalty(
            partition, expected_components
        )


class TestObjectiveIsExact:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), workload_id=st.sampled_from(WORKLOADS))
    def test_every_registry_workload(self, data, workload_id):
        check_exact(data, *workload_case(workload_id))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=60))
    def test_fuzz_generated_specs(self, data, seed):
        check_exact(data, *fuzz_case(seed))

    def test_unassigned_root_resolves_through_its_initial_child(self):
        """The medical root owns transition-condition channels; with
        only leaves assigned it prices them on its initial child's
        side, as refinement does."""
        spec, graph = workload_case("medical")
        leaves = [leaf.name for leaf in spec.leaf_behaviors()]
        initial = spec.top.initial
        assignment = {name: "HW" for name in leaves}
        assignment[initial] = "SW"
        assignment.update({v: "SW" for v in sorted(graph.variable_names)})
        objective = PartitionObjective(spec, graph)
        root_channels = [c for c in graph.data_channels() if c.behavior == spec.top.name]
        assert root_channels and spec.top.name not in assignment
        # the root's channels resolve to SW (its initial child), as do
        # the variables, so only the leaf channels on HW are cut
        partition = Partition(spec, assignment)
        assert objective.cut(assignment) == reference_cut_weight(graph, partition)
        assert objective.cost(assignment) == reference_cost(graph, partition, 0.35, None)
