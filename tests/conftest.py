import pytest
from hypothesis import strategies as st

from tvtwins import ProblemParams, TemporalGraph, TwinWindow, generate_random, parse_tel
from tvtwins.graph import PlantInfeasibleError, TwinPlant, window_starts

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


@st.composite
def temporal_graphs(draw, max_n: int = 9, max_p: int = 4):
    n = draw(st.integers(min_value=2, max_value=max_n))
    p = draw(st.integers(min_value=1, max_value=max_p))
    prob = draw(st.sampled_from([0.0, 0.15, 0.35, 0.6, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return generate_random(n, p, prob, seed=seed)


@st.composite
def structured_graphs(draw, max_n: int = 9, max_p: int = 4):
    """A graph and a tolerance d.  Each round is a star, a complete graph, a
    complete bipartite K_{a,b}, a random round with a planted pair whose
    difference is at most d, or empty.  Many pairs there are twins or have
    neighbourhoods of equal size, unlike in sparse random rounds."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    p = draw(st.integers(min_value=1, max_value=max_p))
    d = draw(st.integers(min_value=0, max_value=2) | st.just(n))  # n: above every degree
    edges_at = {}
    for t in range(p):
        kind = draw(st.sampled_from(["star", "complete", "bipartite", "plant", "empty"]))
        order = draw(st.permutations(range(n)))
        m = draw(st.integers(min_value=2, max_value=n))
        if kind == "star":
            edges = {(order[0], w) for w in order[1:m]}
        elif kind == "complete":
            edges = {(u, w) for i, u in enumerate(order[:m]) for w in order[i + 1 : m]}
        elif kind == "bipartite":
            a = draw(st.integers(min_value=1, max_value=m - 1))
            edges = {(u, w) for u in order[:a] for w in order[a:m]}
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
    return TemporalGraph(p, range(n), edges_at, n=n), d


def all_pairs_windows(graph: TemporalGraph, params: ProblemParams) -> dict[int, set[TwinWindow]]:
    """Reference for ``all_windows``: the naive scan over every pair of nodes in
    every round, common neighbour or not, deciding each pair by the definition:
    outside neighbourhoods that intersect and differ in at most d nodes.

    Neighbourhoods are bitmasks here, an arithmetic route apart from the
    oracle's set algebra."""
    params.validate_for_period(graph.p)
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
            for t0 in window_starts(flags, params.delta):
                result[u].add(TwinWindow(v, t0))
                result[v].add(TwinWindow(u, t0))
    return result
