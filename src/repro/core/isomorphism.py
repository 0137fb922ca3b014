"""Subgraph-isomorphism engine (VF2-style) used by the decomposition algorithm.

The paper's branch-and-bound decomposition repeatedly asks: *does the current
application graph contain a subgraph isomorphic to one of the representation
graphs in the communication library?* (Definition 4).  The original tool used
the C++ VF2 implementation of Cordella et al.; here we implement the same
state-space search directly in Python.

Two matching semantics are provided:

``monomorphism`` (default)
    Every *pattern* edge must map to an edge of the target between the mapped
    endpoints; extra target edges between mapped vertices are allowed.  This
    is the semantics of Definition 3/4: a subgraph ``S`` of the target (any
    edge subset) must be isomorphic to the pattern.  It is what the
    decomposition uses, because only the matched edges are subtracted.

``induced``
    Additionally, every non-edge of the pattern must be a non-edge of the
    target between the mapped vertices.

The matcher supports

* enumeration of one / all / up to *k* matchings,
* canonical de-duplication of matchings that cover the same edge set
  (important for symmetric primitives such as gossip graphs, whose
  automorphism group would otherwise multiply the search space of the
  decomposition),
* a wall-clock timeout, as suggested in Section 5.1 of the paper
  ("the search for the isomorphism can be terminated after a time-out
  period rather than trying all permutations").
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

from repro.core.graph import DiGraph, Edge, Node


@dataclass(frozen=True)
class IsomorphismMapping:
    """An injective mapping from pattern vertices to target vertices."""

    mapping: tuple[tuple[Node, Node], ...]

    @classmethod
    def from_dict(cls, mapping: dict[Node, Node]) -> "IsomorphismMapping":
        """Canonicalize a plain mapping dict into a hashable mapping."""
        return cls(tuple(sorted(mapping.items(), key=lambda kv: repr(kv[0]))))

    def as_dict(self) -> dict[Node, Node]:
        """Plain-dict view of the node mapping."""
        return dict(self.mapping)

    @cached_property
    def _lookup_table(self) -> dict[Node, Node]:
        # cached_property writes straight into the instance __dict__, which
        # sidesteps the frozen dataclass' __setattr__.
        return dict(self.mapping)

    def image(self, node: Node) -> Node:
        """The target node a pattern node is mapped to."""
        return self._lookup_table[node]

    def target_nodes(self) -> set[Node]:
        """The set of target nodes used by the mapping."""
        return {target for _, target in self.mapping}

    def covered_edges(self, pattern: DiGraph) -> frozenset[Edge]:
        """The target edges that are images of pattern edges."""
        as_dict = self.as_dict()
        return frozenset(
            (as_dict[source], as_dict[target]) for source, target in pattern.edges()
        )

    def __len__(self) -> int:
        return len(self.mapping)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{p!r}->{t!r}" for p, t in self.mapping)
        return f"IsomorphismMapping({pairs})"


@dataclass
class MatcherOptions:
    """Tuning knobs for the VF2 search."""

    induced: bool = False
    timeout_seconds: float | None = None
    deduplicate_by_edges: bool = True
    node_compatible: Callable[[Node, Node], bool] | None = None


class SearchTimeout(Exception):
    """Internal signal: the wall-clock budget for this search is exhausted."""


class VF2Matcher:
    """VF2-style state-space search for directed (sub)graph isomorphism.

    Parameters
    ----------
    pattern:
        The library representation graph (the smaller graph).
    target:
        The application graph (or the remaining graph during decomposition).
    options:
        Matching semantics and limits; see :class:`MatcherOptions`.
    """

    def __init__(
        self,
        pattern: DiGraph,
        target: DiGraph,
        options: MatcherOptions | None = None,
    ) -> None:
        self.pattern = pattern
        self.target = target
        self.options = options or MatcherOptions()
        # Pattern nodes in a fixed search order: most-constrained first
        # (highest total degree), which keeps the search shallow for the
        # dense gossip patterns.
        self._pattern_order = sorted(
            pattern.nodes(), key=lambda n: (-pattern.degree(n), repr(n))
        )
        # Target node order and adjacency maps are fixed for the lifetime of
        # one matcher, so they are computed once here instead of per search
        # state (the decomposition runs thousands of states per query).
        self._target_order = target.nodes()
        self._target_index = {node: i for i, node in enumerate(self._target_order)}
        # For each search depth, the already-mapped pattern nodes adjacent to
        # the pattern node placed at that depth, split by edge direction.
        self._mapped_predecessors: list[list[Node]] = []
        self._mapped_successors: list[list[Node]] = []
        for depth, pattern_node in enumerate(self._pattern_order):
            earlier = self._pattern_order[:depth]
            self._mapped_predecessors.append(
                [n for n in earlier if pattern.has_edge(n, pattern_node)]
            )
            self._mapped_successors.append(
                [n for n in earlier if pattern.has_edge(pattern_node, n)]
            )
        self._deadline: float | None = None
        self._states_explored = 0
        self._timed_out = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def find_one(self) -> IsomorphismMapping | None:
        """Return one matching or ``None`` (also ``None`` on timeout)."""
        for match in self.iter_matches(limit=1):
            return match
        return None

    def find_all(self, limit: int | None = None) -> list[IsomorphismMapping]:
        """Return all (de-duplicated) matchings, optionally capped at ``limit``."""
        return list(self.iter_matches(limit=limit))

    def exists(self) -> bool:
        """True when at least one subgraph isomorphism exists."""
        return self.find_one() is not None

    @property
    def states_explored(self) -> int:
        """Number of search states expanded in the last call (for diagnostics)."""
        return self._states_explored

    @property
    def timed_out(self) -> bool:
        """True when the last enumeration was cut short by the timeout."""
        return self._timed_out

    def iter_matches(self, limit: int | None = None) -> Iterator[IsomorphismMapping]:
        """Yield matchings lazily.

        Matchings whose covered target-edge set has already been produced are
        suppressed when ``deduplicate_by_edges`` is set, because they would
        lead to identical branches in the decomposition tree.
        """
        if self.pattern.num_nodes == 0:
            return
        if self.pattern.num_nodes > self.target.num_nodes:
            return
        if self.pattern.num_edges > self.target.num_edges:
            return

        self._states_explored = 0
        self._timed_out = False
        if self.options.timeout_seconds is not None:
            self._deadline = time.monotonic() + self.options.timeout_seconds
        else:
            self._deadline = None

        seen_edge_sets: set[frozenset[Edge]] = set()
        pattern_edges = self.pattern.edges()
        produced = 0
        try:
            for mapping in self._extend({}, set()):
                if self.options.deduplicate_by_edges:
                    # the covered edge set, read off the raw mapping so a
                    # duplicate costs no canonical IsomorphismMapping
                    edge_set = frozenset(
                        (mapping[source], mapping[target]) for source, target in pattern_edges
                    )
                    if edge_set in seen_edge_sets:
                        continue
                    seen_edge_sets.add(edge_set)
                yield IsomorphismMapping.from_dict(mapping)
                produced += 1
                if limit is not None and produced >= limit:
                    return
        except SearchTimeout:
            self._timed_out = True
            return

    # ------------------------------------------------------------------
    # VF2 recursion
    # ------------------------------------------------------------------
    def _check_deadline(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise SearchTimeout()

    def _extend(
        self, mapping: dict[Node, Node], used_targets: set[Node]
    ) -> Iterator[dict[Node, Node]]:
        """Depth-first extension of a partial mapping."""
        self._states_explored += 1
        if self._deadline is not None:
            self._check_deadline()

        depth = len(mapping)
        if depth == len(self._pattern_order):
            yield dict(mapping)
            return

        pattern_node = self._pattern_order[depth]
        for target_node in self._candidate_targets(depth, mapping, used_targets):
            if not self._feasible(pattern_node, target_node, mapping):
                continue
            mapping[pattern_node] = target_node
            used_targets.add(target_node)
            yield from self._extend(mapping, used_targets)
            del mapping[pattern_node]
            used_targets.discard(target_node)

    def _candidate_targets(
        self,
        depth: int,
        mapping: dict[Node, Node],
        used_targets: set[Node],
    ) -> list[Node]:
        """Candidate target nodes for the pattern node placed at ``depth``.

        When the pattern node is adjacent to an already-mapped pattern node,
        candidates are restricted to the neighbourhood of the corresponding
        target node, which is the key VF2 pruning step.  The adjacency
        dictionaries of the target are intersected directly (smallest first)
        rather than copied into fresh sets per state, and the result keeps
        the target's node-insertion order via the precomputed index.
        """
        adjacency: list[Mapping[Node, object]] = [
            self.target.successor_map(mapping[mapped_pattern])
            for mapped_pattern in self._mapped_predecessors[depth]
        ]
        adjacency.extend(
            self.target.predecessor_map(mapping[mapped_pattern])
            for mapped_pattern in self._mapped_successors[depth]
        )
        if not adjacency:
            return [node for node in self._target_order if node not in used_targets]
        adjacency.sort(key=len)
        smallest, rest = adjacency[0], adjacency[1:]
        candidates = [
            node
            for node in smallest
            if node not in used_targets and all(node in adj for adj in rest)
        ]
        candidates.sort(key=self._target_index.__getitem__)
        return candidates

    def _feasible(
        self, pattern_node: Node, target_node: Node, mapping: dict[Node, Node]
    ) -> bool:
        """Consistency + look-ahead checks for adding one pair to the mapping."""
        if self.options.node_compatible is not None and not self.options.node_compatible(
            pattern_node, target_node
        ):
            return False

        # Degree look-ahead: the target node must have enough connectivity
        # left to host the pattern node (valid for monomorphism because every
        # pattern edge needs a distinct target edge).
        if self.target.out_degree(target_node) < self.pattern.out_degree(pattern_node):
            return False
        if self.target.in_degree(target_node) < self.pattern.in_degree(pattern_node):
            return False

        # A monomorphism needs no edge checks: _candidate_targets already
        # kept only nodes adjacent, in both directions the pattern asks for,
        # to the image of every mapped pattern neighbour.
        if not self.options.induced:
            return True

        for mapped_pattern, mapped_target in mapping.items():
            forward_pattern = self.pattern.has_edge(pattern_node, mapped_pattern)
            backward_pattern = self.pattern.has_edge(mapped_pattern, pattern_node)
            forward_target = self.target.has_edge(target_node, mapped_target)
            backward_target = self.target.has_edge(mapped_target, target_node)

            if forward_pattern and not forward_target:
                return False
            if backward_pattern and not backward_target:
                return False
            if self.options.induced:
                if forward_target and not forward_pattern:
                    return False
                if backward_target and not backward_pattern:
                    return False
        return True


# ----------------------------------------------------------------------
# convenience wrappers
# ----------------------------------------------------------------------
def find_subgraph_isomorphism(
    pattern: DiGraph,
    target: DiGraph,
    induced: bool = False,
    timeout_seconds: float | None = None,
) -> IsomorphismMapping | None:
    """Return one subgraph isomorphism from ``pattern`` into ``target``."""
    matcher = VF2Matcher(
        pattern,
        target,
        MatcherOptions(induced=induced, timeout_seconds=timeout_seconds),
    )
    return matcher.find_one()


def find_all_subgraph_isomorphisms(
    pattern: DiGraph,
    target: DiGraph,
    induced: bool = False,
    limit: int | None = None,
    timeout_seconds: float | None = None,
) -> list[IsomorphismMapping]:
    """Return all (edge-set-distinct) subgraph isomorphisms, up to ``limit``."""
    matcher = VF2Matcher(
        pattern,
        target,
        MatcherOptions(induced=induced, timeout_seconds=timeout_seconds),
    )
    return matcher.find_all(limit=limit)


def has_subgraph_isomorphic_to(pattern: DiGraph, target: DiGraph) -> bool:
    """True when ``target`` contains a subgraph isomorphic to ``pattern``."""
    return find_subgraph_isomorphism(pattern, target) is not None


def are_isomorphic(first: DiGraph, second: DiGraph) -> bool:
    """Full graph isomorphism test (Definition 3): same |V|, |E| and structure."""
    if first.num_nodes != second.num_nodes or first.num_edges != second.num_edges:
        return False
    degree_signature = lambda g: sorted(  # noqa: E731 - tiny local helper
        (g.in_degree(n), g.out_degree(n)) for n in g.nodes()
    )
    if degree_signature(first) != degree_signature(second):
        return False
    matcher = VF2Matcher(first, second, MatcherOptions(induced=True))
    return matcher.exists()
