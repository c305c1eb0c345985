"""Exhaustive bundle matching: the backtracking oracle the matching tests
cross-check `santaclaus.matching.find_perfect_matching` against."""

from __future__ import annotations

from typing import Iterator

from santaclaus.clustering import ClusterSet
from santaclaus.matching import (
    Hyperedge,
    MatchingError,
    MatchingState,
    machine_bundles,
    validate_matching,
)


def enumerate_bundles(
    composite_index: int, clusters: ClusterSet, threshold: int
) -> Iterator[Hyperedge]:
    """Hyperedges of one composite: members in machine order, bundles lex.

    Only members whose covering weights carry small configurations produce
    edges; bundles of big jobs never appear because the streams are drawn
    from small columns only.
    """
    comp = clusters.composites[composite_index]
    sizes = clusters.gap.base.sizes()
    small = clusters.job_classes.small
    for i in comp.machines:
        for bundle in machine_bundles(i, clusters.xstar, sizes, threshold, small):
            yield Hyperedge(composite=composite_index, member=i, bundle=bundle)


def exhaustive_matching(clusters: ClusterSet, T: int, budget: int) -> MatchingState:
    """Backtracking over the composites' hyperedge streams in order, within
    ``budget`` steps; validated like `find_perfect_matching`.  Bundles are
    cut at the integer need ceil(T/6), as there."""
    threshold = -(-T // 6)
    n = len(clusters.composites)
    streams = [list(enumerate_bundles(d, clusters, threshold)) for d in range(n)]
    state = MatchingState(matched={})
    used: set[int] = set()
    chosen: dict[int, Hyperedge] = {}

    def dfs(d: int) -> bool:
        state.steps += 1
        if state.steps > budget:
            raise MatchingError(f"exhaustive matching budget {budget} exceeded")
        if d == n:
            return True
        for e in streams[d]:
            if used & set(e.bundle):
                continue
            chosen[d] = e
            used.update(e.bundle)
            if dfs(d + 1):
                return True
            used.difference_update(e.bundle)
            del chosen[d]
        return False

    if not dfs(0):
        raise MatchingError(
            "existence contract violated: exhaustive search found no perfect matching"
        )
    state.matched = dict(chosen)
    validate_matching(state, clusters, T)
    return state
