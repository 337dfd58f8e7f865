"""Cost metrics for automatic partitioning.

The paper takes the partition as an input (SpecSyn [5] produced it);
these metrics give the baseline partitioners an objective in the same
spirit: minimise the *cut* (cross-partition channel weight, which is
precisely the traffic data-related refinement will turn into bus
transactions) while keeping the computational load balanced across
components.

:class:`PartitionObjective` is the one implementation: it compiles a
specification and its access graph into flat tables once, then prices
plain ``{object: component}`` assignments.  The module-level functions
are thin wrappers that compile an objective for a single
:class:`Partition`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional

from repro.graph.access_graph import AccessGraph
from repro.partition.partition import Partition
from repro.spec.specification import Specification
from repro.spec.visitor import count_statements

__all__ = [
    "PartitionObjective",
    "cut_weight",
    "load_by_component",
    "balance_penalty",
    "partition_cost",
]


class PartitionObjective:
    """The partitioners' objective compiled for one (graph,
    balance_weight, expected_components).

    Holds flat tables — the channels in ``graph.data_channels()`` order
    as ``(behavior, variable, weight)``, each leaf's statement count in
    ``leaf_behaviors()`` order, and a map from every behavior those
    tables name to the assignment key it resolves through — so pricing
    an assignment is a few dict lookups per table row.  The map depends
    only on the assignment's key set (not its values); it is rebuilt
    whenever the key set changes.

    Every method sums in table order — the order a direct walk over a
    :class:`Partition`'s channels and leaves takes — and prices the
    whole assignment on each call (no incremental deltas, which would
    reorder the float sums), so its costs are bit-identical to that
    walk's and the partitioners' threshold and Metropolis decisions
    never flip.  ``graph`` may be omitted when only the load is needed
    (no channels, so the cut is 0).
    """

    def __init__(
        self,
        spec: Specification,
        graph: Optional[AccessGraph] = None,
        balance_weight: float = 0.35,
        expected_components: Optional[int] = None,
    ):
        channels = graph.data_channels() if graph is not None else []
        self.spec = spec
        self.balance_weight = balance_weight
        self.expected_components = expected_components
        self.total_weight = sum(c.weight for c in channels) or 1.0
        self.channels = [(c.behavior, c.variable, c.weight) for c in channels]
        self.leaves = [
            (leaf.name, count_statements(leaf.stmt_body))
            for leaf in spec.leaf_behaviors()
        ]
        self._keys: Optional[FrozenSet[str]] = None
        self._key_of: Dict[str, str] = {}

    # -- behavior resolution ----------------------------------------------------

    def _resolution(self, assignment: Mapping[str, str]) -> Dict[str, str]:
        """Behavior name -> the assignment key it resolves through, for
        ``assignment``'s key set (cached until the key set changes).

        Built by :meth:`Partition.effective_component_of_behavior` on a
        partition that assigns every key to itself, so the resolution
        rule (and the validation of the key set) stays in one place."""
        if self._keys is None or assignment.keys() != self._keys:
            keys = Partition(
                self.spec, {key: key for key in assignment}, name="objective"
            )
            names = {behavior for behavior, _, _ in self.channels}
            names.update(leaf for leaf, _ in self.leaves)
            self._key_of = {
                name: keys.effective_component_of_behavior(name)
                for name in names
            }
            self._keys = frozenset(assignment)
        return self._key_of

    # -- the objective --------------------------------------------------------------

    def cut(self, assignment: Mapping[str, str]) -> float:
        """Total static weight of channels whose behavior and variable
        live on different components."""
        key_of = self._resolution(assignment)
        total = 0.0
        for behavior, variable, weight in self.channels:
            if assignment[key_of[behavior]] != assignment[variable]:
                total += weight
        return total

    def load(self, assignment: Mapping[str, str]) -> Dict[str, int]:
        """Statement count each component executes, keyed in the
        assignment's first-appearance component order."""
        key_of = self._resolution(assignment)
        load: Dict[str, int] = dict.fromkeys(assignment.values(), 0)
        for leaf, statements in self.leaves:
            load[assignment[key_of[leaf]]] += statements
        return load

    def penalty(self, assignment: Mapping[str, str]) -> float:
        """Load imbalance: 0 for perfect balance, approaching 1 when one
        component does everything."""
        load = self.load(assignment)
        total = sum(load.values())
        if total == 0:
            return 0.0
        biggest = max(load.values())
        fair_share = total / max(self.expected_components or len(load), 1)
        return (biggest - fair_share) / total

    def cost(self, assignment: Mapping[str, str]) -> float:
        """Normalised cut plus weighted imbalance.  Lower is better."""
        return (
            self.cut(assignment) / self.total_weight
            + self.balance_weight * self.penalty(assignment)
        )


def cut_weight(graph: AccessGraph, partition: Partition) -> float:
    """Total static weight of channels whose behavior and variable live
    on different components."""
    return PartitionObjective(partition.spec, graph).cut(partition.assignment)


def load_by_component(partition: Partition) -> Dict[str, int]:
    """Statement count each component executes (a crude area/time
    proxy)."""
    return PartitionObjective(partition.spec).load(partition.assignment)


def balance_penalty(
    partition: Partition, expected_components: Optional[int] = None
) -> float:
    """Imbalance of the computational load: 0 for perfect balance,
    approaching 1 when one component does everything.

    ``expected_components`` is the number of components the partitioner
    *wants* to use; without it a partition that collapsed everything
    onto one component would score perfect balance (its fair share
    would be computed over the single surviving component)."""
    return PartitionObjective(
        partition.spec, expected_components=expected_components
    ).penalty(partition.assignment)


def partition_cost(
    graph: AccessGraph,
    partition: Partition,
    balance_weight: float = 0.35,
    expected_components: Optional[int] = None,
) -> float:
    """The partitioners' objective: normalised cut plus weighted
    imbalance.  Lower is better."""
    return PartitionObjective(
        partition.spec, graph, balance_weight, expected_components
    ).cost(partition.assignment)
