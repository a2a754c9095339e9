"""Centralized brute-force ground truth for twin detection.

Everything here works directly on neighbour sets of the full graph, with no
message passing: it exists so the distributed protocol has an independent
reference to be checked against.  The decider is the plain set test of
:func:`is_d_twin`; :func:`all_windows` asks it only about the pairs that a
prefix filter of exact set-similarity joins (Bayardo, Ma and Srikant, WWW
2007, with the positional bound of PPJoin, Xiao et al., WWW 2008) cannot rule
out.  A twin pair with degrees dv <= du <= dv + d shares at least
tau = max(1, ceil((du + dv - 2 adj - d) / 2)) neighbours, and
tau >= du - d - 1 and tau >= dv - 1 - d // 2.  So with every neighbour set
sorted in one global order, the pair's lowest shared neighbour lies in u's
first d + 2 and in v's first d // 2 + 2 neighbours (the prefix lemma).  Each
pair is met only through a neighbour in both prefixes, so a round costs at
most its wedges (the sum of deg**2) plus one sort per node, not n**2.
"""

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


def all_windows(graph: TemporalGraph, params: ProblemParams) -> dict[int, set[TwinWindow]]:
    """Every twin window of every node, read from its per-round verdicts by ``twin_windows``.

    All valid start instants in [0, p) are reported, including overlapping
    starts of longer runs and windows that straddle the period boundary.  The
    output is symmetric: (v, t0) is listed for u iff (u, t0) is listed for v.
    Each round, the nodes are visited by (degree, id) and each neighbour set
    is read as its sorted ranks in that order, rarest neighbour first.  A node
    probes its first d + 2 ranks against the earlier nodes' first d // 2 + 2.
    Each pair is weighed once, at its first shared rank, at positions i and j:
    :func:`is_d_twin` decides it only if the degrees are at most d apart and
    min(du - i, dv - j), which bounds the shared neighbours, reaches tau.
    """
    p, delta, d = graph.p, params.delta, params.d
    verdicts: dict[int, list[tuple[int, int]]] = {}
    for t in range(p):
        order = sorted(graph.active_nodes(t), key=lambda v: (len(graph.neighbours(v, t)), v))
        rank = {v: r for r, v in enumerate(order)}
        postings: dict[int, list[tuple[int, int, int]]] = {}  # rank -> (degree, node, position)
        for u in order:
            near = graph.neighbours(u, t)
            du = len(near)
            tokens = sorted(map(rank.__getitem__, near))
            met = set()
            for i, w in enumerate(tokens[: d + 2]):
                # Postings ascend in degree; below du - d the size gap alone exceeds d.
                for dv, v, j in reversed(postings.get(w, ())):
                    if dv < du - d:
                        break
                    if v in met:
                        continue
                    met.add(v)
                    # At most min(du - i, dv - j) shared; a twin shares tau.
                    if 2 * min(du - i, dv - j) + d + 2 * (v in near) >= du + dv:
                        x, y = (u, v) if u < v else (v, u)
                        if is_d_twin(graph, x, y, t, d):
                            verdicts.setdefault(u, []).append((v, t))
                            verdicts.setdefault(v, []).append((u, t))
            for j, w in enumerate(tokens[: d // 2 + 2]):
                postings.setdefault(w, []).append((du, u, j))
    return {
        v: twin_windows(verdicts[v], p, delta) if v in verdicts else set()
        for v in sorted(graph.nodes)
    }
