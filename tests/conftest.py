from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

from tvtwins import ProblemParams, Simulation, TemporalGraph, TwinWindow, generate_random, parse_tel
from tvtwins.graph import PlantInfeasibleError, TwinPlant, id_width
from tvtwins.simulator import RunResult
from tvtwins import sketch
from tvtwins.sketch import estimate_union, sketch_d_twin_test

# Wrap fixture: pair (0, 1) shares neighbour 2 in every round but picks up an
# extra distinguishing edge at round 2, so with delta=3, d=0 the only valid
# window starts at 3 and straddles the period boundary.
WRAP_TEL = (
    "p=4 n=4\n"
    "0 0 2\n0 1 2\n"
    "1 0 2\n1 1 2\n"
    "2 0 2\n2 1 2\n2 0 3\n2 2 3\n"
    "3 0 2\n3 1 2\n"
)

P3_TEL = "p=1 n=3\n0 1 2\n0 2 3\n"


@pytest.fixture
def wrap_graph() -> TemporalGraph:
    return parse_tel(WRAP_TEL)


@pytest.fixture
def p3() -> TemporalGraph:
    return parse_tel(P3_TEL)


def path_graph(n: int) -> TemporalGraph:
    """Path 1-2-...-n as a period-1 graph."""
    edges = {0: {(i, i + 1) for i in range(1, n)}}
    return TemporalGraph(p=1, nodes=set(range(1, n + 1)), edges_at=edges)


def fig1_graph() -> TemporalGraph:
    """A 12-cycle a..l with shortcut copies c' of c and j' of j; j and j' are
    also adjacent.  Both (c, c') and (j, j') are 0-twins."""
    a, b, c, d, e, f, g, h, i, j, k, l, c2, j2 = range(14)
    cycle = [a, b, c, d, e, f, g, h, i, j, k, l]
    edges = {(cycle[x], cycle[(x + 1) % 12]) for x in range(12)}
    edges |= {(b, c2), (c2, d), (i, j2), (j2, k), (j, j2)}
    return TemporalGraph(p=1, nodes=set(range(14)), edges_at={0: edges})


def adjacent_twins_graph() -> TemporalGraph:
    """u=0 and v=1 adjacent, sharing neighbours 2 and 3, nothing else."""
    return TemporalGraph(
        p=1, nodes={0, 1, 2, 3}, edges_at={0: {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}}
    )


def sketch_twin(a, b, adj: int, d: int) -> bool:
    """The sketch twin decision for one pair: a node with sketch ``a`` and its
    one candidate, id 1, with sketch ``b``, adjacent to it iff ``adj`` is 1."""
    return sketch_d_twin_test(a, {1: b}, {1} if adj else set(), d) == {1}


@contextmanager
def counting_estimator():
    """Record the sketch pairs that reach estimate_union while the block runs."""
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return estimate_union(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sketch, "estimate_union", counted)
        yield calls


@st.composite
def temporal_graphs(draw, max_n: int = 9, max_p: int = 4):
    # Each n is drawn in proportion to n - 1, the peers a node has: a 2-node
    # round has no pair with a common neighbour, so n = 2 gets 1 draw in
    # (max_n - 1) * max_n / 2.  st.integers leans to its lower bound and would
    # give it about 30% of the rounds.
    n = draw(st.sampled_from([m for m in range(2, max_n + 1) for _ in range(m - 1)]))
    p = draw(st.integers(min_value=1, max_value=max_p))
    # The floor gives an n-node round at least 0.6 * (n - 1) expected edges, so
    # about 3% of rounds are edgeless, against 37% with 0.0 among the draws
    # and no floor: edgeless rounds still occur, but rarely use up the budget.
    prob = max(draw(st.sampled_from([0.15, 0.35, 0.6, 1.0])), 1.2 / n)
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return generate_random(n, p, prob, seed=seed)


@st.composite
def structured_graphs(draw, max_n: int = 9, max_p: int = 4):
    """A graph and a tolerance d.  Each round is a star, a complete graph, a
    complete bipartite K_{a,b}, a path, a cycle, a random round with a planted
    pair whose difference is at most d, or empty.  Many pairs there are twins
    or have neighbourhoods of equal size, unlike in sparse random rounds.  The
    nodes are relabelled into the IDs the declared n admits, [0, 2^W - 1], so
    some IDs may be n or above and the node set need not be 0..n-1."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    p = draw(st.integers(min_value=1, max_value=max_p))
    d = draw(st.integers(min_value=0, max_value=2) | st.just(n))  # n: above every degree
    edges_at = {}
    for t in range(p):
        kinds = ["star", "complete", "bipartite", "path", "cycle", "plant", "empty"]
        kind = draw(st.sampled_from(kinds))
        order = draw(st.permutations(range(n)))
        m = draw(st.integers(min_value=2, max_value=n))
        if kind == "star":
            edges = {(order[0], w) for w in order[1:m]}
        elif kind == "complete":
            edges = {(u, w) for i, u in enumerate(order[:m]) for w in order[i + 1 : m]}
        elif kind == "bipartite":
            a = draw(st.integers(min_value=1, max_value=m - 1))
            edges = {(u, w) for u in order[:a] for w in order[a:m]}
        elif kind in ("path", "cycle"):
            edges = {(order[i], order[i + 1]) for i in range(m - 1)}
            if kind == "cycle" and m > 2:
                edges.add((order[m - 1], order[0]))
        elif kind == "plant":
            plant = TwinPlant(order[0], order[1], 0, 1, draw(st.integers(0, min(d, n - 3))))
            prob, seed = draw(st.sampled_from([0.0, 0.3, 0.6])), draw(st.integers(0, 2**16))
            try:
                edges = generate_random(n, 1, prob, plant, seed).edges(0)
            except PlantInfeasibleError:  # a plant on an empty round always fits
                edges = generate_random(n, 1, 0.0, plant).edges(0)
        else:
            edges = set()
        edges_at[t] = edges
    label = draw(st.permutations(range(1 << id_width(n))))[:n]
    relabelled = {t: {(label[u], label[w]) for u, w in edges} for t, edges in edges_at.items()}
    return TemporalGraph(p, label, relabelled, n=n), d


def all_pairs_windows(graph: TemporalGraph, params: ProblemParams) -> dict[int, set[TwinWindow]]:
    """Reference for ``all_windows``: the naive scan over every pair of nodes in
    every round, common neighbour or not, deciding each pair by the definition:
    outside neighbourhoods that intersect and differ in at most d nodes.

    Neighbourhoods are bitmasks here, an arithmetic route apart from the
    oracle's set algebra, and windows are read from each pair's flags over two
    unrolled periods, apart from ``twin_windows``' modular scan."""
    nodes = sorted(graph.nodes)
    bit = {v: 1 << i for i, v in enumerate(nodes)}
    masks = [
        {v: sum(bit[w] for w in graph.neighbours(v, t)) for v in nodes} for t in range(graph.p)
    ]
    result: dict[int, set[TwinWindow]] = {v: set() for v in nodes}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            outside = ~(bit[u] | bit[v])
            flags = []
            for mask in masks:
                a, b = mask[u] & outside, mask[v] & outside
                flags.append(a & b != 0 and (a ^ b).bit_count() <= params.d)
            unrolled = flags + flags
            # For delta >= p the slice from t0 < p holds at least p consecutive
            # flags, so it covers every round: no clamp of delta is needed here.
            for t0 in range(graph.p):
                if all(unrolled[t0 : t0 + params.delta]):
                    result[u].add(TwinWindow(v, t0))
                    result[v].add(TwinWindow(u, t0))
    return result


class NoCommonNeighbourError(ValueError):
    """The queried pair has no common neighbour, so the path-count test does not apply."""


def prop1_check(graph: TemporalGraph, u: int, v: int, t: int, d: int) -> bool:
    """Decide the twin relation by counting length-2 paths between u and v.

    A route apart from the oracle's: paths are counted by explicit midpoint
    enumeration rather than through set algebra.  Requires the pair to have
    at least one common neighbour; raises :class:`NoCommonNeighbourError`
    otherwise.
    """
    if u == v:
        raise ValueError(f"twin relations need two distinct nodes, got {u} twice")
    paths = 0
    for w in graph.nodes:
        if w != u and w != v and w in graph.neighbours(u, t) and v in graph.neighbours(w, t):
            paths += 1
    if paths == 0:
        raise NoCommonNeighbourError(f"nodes {u} and {v} have no common neighbour at time {t}")
    k = len((graph.neighbours(u, t) | graph.neighbours(v, t)) - {u, v})
    return d >= k or paths >= k - d


def run_with_snapshots(sim: Simulation) -> tuple[RunResult, list[tuple], int]:
    """Run ``sim`` to the end, copying every node's ``twins_at[t]`` right after
    round p+t, and check that the verdicts form a write-once record.

    Returns the run's result, its violations and the number of windows inside
    the period that were checked.  A violation is ``("ahead", v, t)`` when a
    slot after t already holds a verdict at round p+t, ``("rewritten", v, t)``
    when slot t at the end differs from its copy, and ``("late", v, window)``
    when a window (peer, s) inside the period lacks one of its delta verdicts
    in the copies, so that it was not known at round p+s+delta-1."""
    p, delta = sim.graph.p, sim.config.params.delta
    snapshots = {v: [] for v in sim.states}
    violations = []
    while sim.round < 2 * p:
        sim.step()
        t = sim.round - 1 - p
        if t < 0:
            continue
        for v, state in sim.states.items():
            snapshots[v].append(set(state.twins_at[t]))
            if any(state.twins_at[t + 1 :]):
                violations.append(("ahead", v, t))
    result = sim.run()
    checked = 0
    for v, state in sim.states.items():
        copies = snapshots[v]
        violations += [("rewritten", v, t) for t in range(p) if state.twins_at[t] != copies[t]]
        for window in result.windows[v]:
            if window.start + delta > p:
                continue  # straddles the period boundary: read only by finalize
            checked += 1
            if any(window.peer not in copy for copy in copies[window.start : window.start + delta]):
                violations.append(("late", v, window))
    return result, violations, checked
