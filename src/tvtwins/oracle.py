"""Centralized brute-force ground truth for twin detection.

Everything here works directly on neighbour sets of the full graph, with no
message passing: it exists so the distributed protocol has an independent
reference to be checked against.  The decider is the plain set test of
:func:`is_d_twin`; :func:`all_windows` asks it only about the pairs that share
a neighbour in a round (a pair without one is no twin by definition), so its
cost follows each round's two-hop reach, not the square of the node count.
"""

from typing import NamedTuple

from .graph import ProblemParams, TemporalGraph, TwinWindow, window_starts


class NoCommonNeighbourError(ValueError):
    """The queried pair has no common neighbour, so the path-count test does not apply."""


class PairProfile(NamedTuple):
    """Set profile of a node pair at one time instant.

    Both fields are taken over the two outside neighbourhoods (neighbour sets
    with both pair members removed): ``common_count`` is the size of their
    intersection, which also counts the length-2 paths between the pair, and
    ``difference`` the size of their symmetric difference.
    """

    common_count: int
    difference: int


def _outside_sets(graph: TemporalGraph, u: int, v: int, t: int):
    if u == v:
        raise ValueError(f"twin relations need two distinct nodes, got {u} twice")
    a, b = graph.neighbours(u, t), graph.neighbours(v, t)
    # No node neighbours itself, so only an adjacent pair has a member to drop.
    if v in a:
        return a - {v}, b - {u}
    return a, b


def pair_profile(graph: TemporalGraph, u: int, v: int, t: int) -> PairProfile:
    """Compute (common count, symmetric difference) for a pair at time t."""
    a, b = _outside_sets(graph, u, v, t)
    common = len(a & b)
    return PairProfile(common, len(a) + len(b) - 2 * common)


def is_d_twin(graph: TemporalGraph, u: int, v: int, t: int, d: int) -> bool:
    """True iff u and v share a neighbour at t and their outside sets differ by at most d."""
    profile = pair_profile(graph, u, v, t)
    return profile.common_count >= 1 and profile.difference <= d


def prop1_check(graph: TemporalGraph, u: int, v: int, t: int, d: int) -> bool:
    """Decide the twin relation by counting length-2 paths between u and v.

    Independent route: paths are counted by explicit midpoint enumeration
    rather than through set algebra.  Requires the pair to have at least one
    common neighbour; raises :class:`NoCommonNeighbourError` otherwise.
    """
    if u == v:
        raise ValueError(f"twin relations need two distinct nodes, got {u} twice")
    paths = 0
    for w in graph.nodes:
        if w != u and w != v and graph.adjacent(u, w, t) and graph.adjacent(w, v, t):
            paths += 1
    if paths == 0:
        raise NoCommonNeighbourError(f"nodes {u} and {v} have no common neighbour at time {t}")
    k = len((graph.neighbours(u, t) | graph.neighbours(v, t)) - {u, v})
    return d >= k or paths >= k - d


def all_windows(graph: TemporalGraph, params: ProblemParams) -> dict[int, set[TwinWindow]]:
    """Every twin window of every node, by circular scan of per-round twin flags.

    All valid start instants in [0, p) are reported, including overlapping
    starts of longer runs and windows that straddle the period boundary.  The
    output is symmetric: (v, t0) is listed for u iff (u, t0) is listed for v.
    """
    params.validate_for_period(graph.p)
    p, delta, d = graph.p, params.delta, params.d
    flags: dict[tuple[int, int], list[bool]] = {}
    for t in range(p):
        for u, v in graph.common_neighbour_pairs(t):
            if is_d_twin(graph, u, v, t, d):
                flags.setdefault((u, v), [False] * p)[t] = True
    result: dict[int, set[TwinWindow]] = {v: set() for v in sorted(graph.nodes)}
    for (u, v), pair_flags in flags.items():
        for t0 in window_starts(pair_flags, delta):
            result[u].add(TwinWindow(v, t0))
            result[v].add(TwinWindow(u, t0))
    return result
