"""Centralized brute-force ground truth for twin detection.

Everything here works directly on neighbour sets of the full graph, with no
message passing: it exists so the distributed protocol has an independent
reference to be checked against.  The decider is the plain set test of
:func:`is_d_twin`; :func:`all_windows` asks it only about the pairs that share
a neighbour in a round (a pair without one is no twin by definition) and whose
degrees differ by at most d (a wider gap alone rules a pair out).  Per round,
it lists them by a degree-band scan or by the two-hop walk of
``TemporalGraph.two_hop_reach``, whichever the degree histogram rates cheaper,
so its cost follows each round's band pairs or wedges, not n**2.
"""

from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from typing import NamedTuple

from .graph import ProblemParams, TemporalGraph, TwinWindow, twin_windows


class PairProfile(NamedTuple):
    """Set profile of a node pair at one time instant.

    Both fields are taken over the two outside neighbourhoods (neighbour sets
    with both pair members removed): ``common_count`` is the size of their
    intersection, which also counts the length-2 paths between the pair, and
    ``difference`` the size of their symmetric difference.
    """

    common_count: int
    difference: int


def pair_profile(graph: TemporalGraph, u: int, v: int, t: int) -> PairProfile:
    """Compute (common count, symmetric difference) for a pair at time t."""
    if u == v:
        raise ValueError(f"twin relations need two distinct nodes, got {u} twice")
    a, b = graph.neighbours(u, t), graph.neighbours(v, t)
    # No node neighbours itself, so neither pair member lies in a & b: it is
    # already the outside intersection.  Adjacency puts one member in each
    # raw set, which the outside sets drop.
    common = len(a & b)
    adj = 1 if v in a else 0
    return PairProfile(common, len(a) + len(b) - 2 * adj - 2 * common)


def is_d_twin(graph: TemporalGraph, u: int, v: int, t: int, d: int) -> bool:
    """True iff u and v share a neighbour at t and their outside sets differ by at most d."""
    profile = pair_profile(graph, u, v, t)
    return profile.common_count >= 1 and profile.difference <= d


# us per all_windows round, walk/band, seed 5, Python 3.11.7, 2-core VM: dense-lossless 1790/1200
# (W ~21k, B ~1.2k), lossy-long 830/680 (W ~34k, B ~470), sparse-wide 1510/2440 (W ~6.1k, B ~18k).
_BAND_PAIR_COST = 4


def all_windows(graph: TemporalGraph, params: ProblemParams) -> dict[int, set[TwinWindow]]:
    """Every twin window of every node, read from its per-round verdicts by ``twin_windows``.

    All valid start instants in [0, p) are reported, including overlapping
    starts of longer runs and windows that straddle the period boundary.  The
    output is symmetric: (v, t0) is listed for u iff (u, t0) is listed for v.
    Each round, :func:`is_d_twin` decides only the pairs that share a
    neighbour and whose degrees differ by at most d, listed by the band scan
    when 4 * B <= W (B pairs at most d apart in degree, W = sum of deg**2) and
    else by the two-hop walk with a degree filter.
    """
    p, delta, d = graph.p, params.delta, params.d
    verdicts: dict[int, list[tuple[int, int]]] = {}
    for t in range(p):
        degree = {v: len(graph.neighbours(v, t)) for v in graph.active_nodes(t)}
        hist = sorted(Counter(degree.values()).items())
        ladder, below = [g for g, _ in hist], [0, *accumulate(c for _, c in hist)]
        # end[g] nodes have degree <= g + d.  B counts each node with every node from its degree
        # to end[g], less itself and the equal-degree pairs counted twice.
        end = {g: below[bisect_right(ladder, g + d)] for g in ladder}
        band = sum(c * (end[g] - below[i]) - c * (c + 1) // 2 for i, (g, c) in enumerate(hist))
        if _BAND_PAIR_COST * band <= sum(c * g * g for g, c in hist):
            order = sorted(degree, key=degree.__getitem__)
            near = {v: graph.neighbours(v, t) for v in order}
            for i, (u, a) in enumerate(near.items()):
                for v in order[i + 1 : end[degree[u]]]:
                    if not a.isdisjoint(near[v]):
                        x, y = (u, v) if u < v else (v, u)
                        if is_d_twin(graph, x, y, t, d):
                            verdicts.setdefault(u, []).append((v, t))
                            verdicts.setdefault(v, []).append((u, t))
            continue
        for u, later in graph.two_hop_reach(t):
            # Outside sets: |A' Δ B'| >= ||A'| - |B'|| = |deg u - deg v|, so a wider gap is no twin.
            low, high = degree[u] - d, degree[u] + d
            for v in later:
                if low <= degree[v] <= high and is_d_twin(graph, u, v, t, d):
                    verdicts.setdefault(u, []).append((v, t))
                    verdicts.setdefault(v, []).append((u, t))
    return {
        v: twin_windows(verdicts[v], p, delta) if v in verdicts else set()
        for v in sorted(graph.nodes)
    }
