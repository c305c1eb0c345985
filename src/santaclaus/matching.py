"""Perfect matching of composite machines to small-job bundles.

Every composite machine (super machine or middle singleton) must receive a
bundle of small jobs of total size at least T/6, pairwise disjoint across
composites.  Bundles are minimal sub-configurations of the small
configurations the covering solution actually carries, so each bundle's
total also stays below T/6 + T/12 = T/4.  Totals are integers, so bundles
are cut at the integer need ceil(T/6), and the window reads
6 * total >= T and 4 * total < T.

The default strategy grows an alternating tree per unmatched composite: it
repeatedly takes the first hyperedge (smallest member machine, then
lexicographic bundle) whose bundle avoids every job already in the tree.  An
unblocked edge is swapped into the matching, re-matching displaced
composites and promoting any add edge it unblocks; a blocked edge joins the
tree together with its blockers.  When the composite cover condition holds
(every composite carries small weight >= 1/2) the tree always has an edge to
take, so a stall is raised as an upstream defect rather than papered over.
The local search may take superpolynomially many steps in principle; a step
budget turns pathological blowup into an error instead of a hang.

The tests cross-check it on small instances against a backtracking search
over the same hyperedge streams, which they keep as their own oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .clustering import ClusterSet
from .configlp import ClpSolution


class MatchingError(RuntimeError):
    """The bundle matching failed or broke an invariant.  Raised, not asserted, so
    that ``python -O`` keeps it."""


@dataclass(frozen=True)
class Hyperedge:
    composite: int  # index into clusters.composites
    member: int  # machine id inside that composite, with support
    bundle: tuple[int, ...]


@dataclass
class MatchingState:
    matched: dict[int, Hyperedge]
    steps: int = 0


def minimal_covers(jobs: tuple[int, ...], sizes, threshold: int) -> Iterator[tuple[int, ...]]:
    """Minimal subsets of ``jobs`` with total >= threshold, in lex order.

    A branch stops as soon as it covers: any extension would contain a
    covering proper subset.  The prefix below the last element is always
    short of the threshold, so only the full minimality check at the leaf
    can reject.
    """
    ordered = sorted(jobs)

    def walk(start: int, chosen: list[int], total: int) -> Iterator[tuple[int, ...]]:
        if total >= threshold:
            if all(total - sizes[j] < threshold for j in chosen):
                yield tuple(chosen)
            return
        for k in range(start, len(ordered)):
            j = ordered[k]
            chosen.append(j)
            yield from walk(k + 1, chosen, total + sizes[j])
            chosen.pop()

    yield from walk(0, [], 0)


def machine_bundles(
    machine: int,
    xstar: ClpSolution,
    sizes,
    threshold: int,
    small: frozenset[int],
) -> Iterator[tuple[int, ...]]:
    """Deduplicated minimal small bundles from the machine's carried columns."""
    seen: set[tuple[int, ...]] = set()
    for cfg_jobs in _small_only(xstar, machine, small):
        for bundle in minimal_covers(cfg_jobs, sizes, threshold):
            if bundle not in seen:
                seen.add(bundle)
                yield bundle


def _small_only(xstar: ClpSolution, machine: int, small: frozenset[int]) -> list[tuple[int, ...]]:
    cols = []
    for cfg, w in xstar.carried(machine):
        if w > 0 and set(cfg.jobs) <= small:
            cols.append(cfg.jobs)
    return cols


def validate_matching(state: MatchingState, clusters: ClusterSet, T: int) -> None:
    sizes = clusters.gap.base.sizes()
    small = clusters.job_classes.small
    used: set[int] = set()
    for d, comp in enumerate(clusters.composites):
        if d not in state.matched:
            raise MatchingError(f"composite {d} left unmatched")
        e = state.matched[d]
        if e.member not in comp.machines:
            raise MatchingError(f"matched member {e.member} is not in composite {d}")
        if not set(e.bundle) <= small:
            raise MatchingError(f"bundle of composite {d} contains a big job")
        total = sum(sizes[j] for j in e.bundle)
        if not (6 * total >= T and 4 * total < T):
            raise MatchingError(
                f"bundle total {total} outside [{Fraction(T, 6)}, {Fraction(T, 4)}) for composite {d}"
            )
        supported = set()
        for cfg_jobs in _small_only(clusters.xstar, e.member, small):
            supported.update(cfg_jobs)
        if not set(e.bundle) <= supported:
            raise MatchingError(f"bundle of composite {d} leaves its member's support")
        overlap = used & set(e.bundle)
        if overlap:
            raise MatchingError(f"bundle of composite {d} reuses jobs {sorted(overlap)}")
        used.update(e.bundle)


def find_perfect_matching(
    clusters: ClusterSet,
    T: int,
    budget: int = 10**6,
    trace: list[str] | None = None,
) -> MatchingState:
    """Alternating-tree matching, validated before it is returned."""
    state = _local_search_matching(clusters, -(-T // 6), budget, trace)
    validate_matching(state, clusters, T)
    return state


def _local_search_matching(
    clusters: ClusterSet, threshold: int, budget: int, trace: list[str] | None
) -> MatchingState:
    matched: dict[int, Hyperedge] = {}
    state = MatchingState(matched=matched)
    comp_of_machine = {
        i: d for d, comp in enumerate(clusters.composites) for i in comp.machines
    }
    for root in range(len(clusters.composites)):
        _extend_matching(root, clusters, threshold, matched, comp_of_machine, state, budget, trace)
    return state


def _extend_matching(
    root: int,
    clusters: ClusterSet,
    threshold: int,
    matched: dict[int, Hyperedge],
    comp_of_machine: dict[int, int],
    state: MatchingState,
    budget: int,
    trace: list[str] | None,
) -> None:
    adds: list[Hyperedge | None] = []
    blockers: list[set[int]] = []

    def tree_composites() -> list[int]:
        comps = {root}
        for bl in blockers:
            comps.update(bl)
        return sorted(comps)

    def tree_jobs() -> set[int]:
        jobs: set[int] = set()
        for idx, a in enumerate(adds):
            if a is None:
                continue
            jobs.update(a.bundle)
            for d in blockers[idx]:
                jobs.update(matched[d].bundle)
        return jobs

    def first_candidate(blocked_jobs: set[int]) -> Hyperedge | None:
        existing = {
            (a.composite, a.member, a.bundle) for a in adds if a is not None
        }
        machines = sorted(
            i for d in tree_composites() for i in clusters.composites[d].machines
        )
        sizes = clusters.gap.base.sizes()
        small = clusters.job_classes.small
        for i in machines:
            d = comp_of_machine[i]
            for bundle in machine_bundles(i, clusters.xstar, sizes, threshold, small):
                if set(bundle) & blocked_jobs:
                    continue
                if (d, i, bundle) in existing:
                    continue
                cur = matched.get(d)
                if cur is not None and cur.member == i and cur.bundle == bundle:
                    continue
                return Hyperedge(composite=d, member=i, bundle=bundle)
        return None

    def assign_and_cascade(e: Hyperedge) -> None:
        matched[e.composite] = e
        for bl in blockers:
            bl.discard(e.composite)
        if trace is not None:
            trace.append(f"augment: composite {e.composite} takes {e.bundle} via machine {e.member}")
        while True:
            promoted = False
            for idx, a in enumerate(adds):
                if a is not None and not blockers[idx]:
                    adds[idx] = None
                    matched[a.composite] = a
                    for bl in blockers:
                        bl.discard(a.composite)
                    if trace is not None:
                        trace.append(
                            f"promote: composite {a.composite} takes {a.bundle} via machine {a.member}"
                        )
                    promoted = True
                    break
            if not promoted:
                return

    while root not in matched:
        state.steps += 1
        if state.steps > budget:
            raise MatchingError(f"alternating-tree step budget {budget} exceeded")
        blocked_jobs = tree_jobs()
        e = first_candidate(blocked_jobs)
        if e is None:
            raise MatchingError(
                f"existence contract violated: no addable hyperedge for composite {root}; "
                "the composite cover condition must have been violated upstream"
            )
        overlapped = sorted(
            d for d, me in matched.items() if set(me.bundle) & set(e.bundle)
        )
        if not overlapped:
            assign_and_cascade(e)
            continue
        adds.append(e)
        blockers.append(set(overlapped))
        if trace is not None:
            trace.append(
                f"add: composite {e.composite} wants {e.bundle}, blocked by {overlapped}"
            )
        live = [(a, bl) for a, bl in zip(adds, blockers) if a is not None]
        if not all(bl for _, bl in live):
            raise MatchingError("an add edge lost all blockers without promotion")
        blocking_union: list[int] = []
        for _, bl in live:
            blocking_union.extend(bl)
        if len(blocking_union) != len(set(blocking_union)):
            raise MatchingError("blocker sets must stay disjoint")
        if len(live) > len(blocking_union):
            raise MatchingError("|A| <= |B| invariant broken")
