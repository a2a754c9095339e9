"""Periodic time-varying graphs: data model, .tel text format, random generation.

A time-varying graph here is a fixed node set together with one undirected
edge set per round index ``t`` in ``[0, p)``; any query at a larger (or
negative) time wraps around, so round ``t`` and round ``t + p`` are
indistinguishable.
"""

import random
from dataclasses import dataclass
from typing import NamedTuple


class TelParseError(ValueError):
    """A .tel document violated the format. Carries the offending line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class PlantInfeasibleError(ValueError):
    """The requested twin plant cannot be realized on the given node set."""


def id_width(n: int) -> int:
    """Number of bits needed to encode one node ID when n nodes are declared.

    This is ceil(log2 n); it is the unit used by all message-size accounting.
    """
    if n < 1:
        raise ValueError("node count must be positive")
    return (n - 1).bit_length()


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class TemporalGraph:
    """An undirected graph on a fixed node set whose edges repeat with period p.

    Immutable after construction.  ``n`` is the declared node count from which
    the ID bit width is derived; the actual node set may contain IDs up to the
    largest value representable in that width (IDs are not required to be the
    dense range 0..n-1).
    """

    def __init__(self, p: int, nodes, edges_at=None, n: int | None = None):
        if p < 1:
            raise ValueError("period must be positive")
        node_set = frozenset(nodes)
        for v in node_set:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"node id {v!r} is not a non-negative integer")
        if n is None:
            n = max(node_set) + 1 if node_set else 1
        if n < 1:
            raise ValueError("declared node count must be positive")
        width = id_width(n)
        for v in node_set:
            if v.bit_length() > width:
                raise ValueError(
                    f"node id {v} is not representable in {width} bits (n={n})"
                )

        edges_at = edges_at or {}
        per_round = [set() for _ in range(p)]
        for t, pairs in edges_at.items():
            if not 0 <= t < p:
                raise ValueError(f"round index {t} outside [0, {p})")
            for u, v in pairs:
                if u == v:
                    raise ValueError(f"self-loop at node {u}")
                if u not in node_set or v not in node_set:
                    raise ValueError(f"edge ({u}, {v}) has an endpoint outside the node set")
                per_round[t].add(_normalize_edge(u, v))

        self._p = p
        self._n = n
        self._nodes = node_set
        self._edges = tuple(frozenset(s) for s in per_round)
        adj = []
        for t in range(p):
            table = {v: set() for v in node_set}
            for u, v in self._edges[t]:
                table[u].add(v)
                table[v].add(u)
            adj.append({v: frozenset(s) for v, s in table.items()})
        self._adj = tuple(adj)
        self._max_degree = max(
            (len(s) for table in self._adj for s in table.values()), default=0
        )

    @property
    def p(self) -> int:
        return self._p

    @property
    def n(self) -> int:
        return self._n

    @property
    def nodes(self) -> frozenset[int]:
        return self._nodes

    def edges(self, t: int) -> frozenset[tuple[int, int]]:
        """Edge set at time t (pairs normalized so u < v); t wraps mod p."""
        return self._edges[t % self._p]

    def neighbours(self, v: int, t: int) -> frozenset[int]:
        """Neighbour set of v at time t; t wraps mod p."""
        table = self._adj[t % self._p]
        if v not in table:
            raise KeyError(f"unknown node id {v}")
        return table[v]

    def degree(self, v: int, t: int) -> int:
        return len(self.neighbours(v, t))

    def adjacent(self, u: int, v: int, t: int) -> bool:
        return v in self.neighbours(u, t)

    def max_degree(self) -> int:
        """Maximum degree over all nodes and all rounds (0 for edgeless graphs)."""
        return self._max_degree

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (
            self._p == other._p
            and self._n == other._n
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self._p, self._n, self._nodes, self._edges))

    def __repr__(self) -> str:
        m = sum(len(s) for s in self._edges)
        return f"TemporalGraph(p={self._p}, n={self._n}, nodes={len(self._nodes)}, temporal_edges={m})"


@dataclass(frozen=True)
class ProblemParams:
    """Detection parameters: window length and tolerated neighbourhood difference."""

    delta: int
    d: int

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        if self.d < 0:
            raise ValueError("d must be non-negative")

    def validate_for_period(self, p: int) -> None:
        if self.delta > p:
            raise ValueError(f"delta {self.delta} exceeds period {p}")


class TwinWindow(NamedTuple):
    """A detected window: d-twin with ``peer`` for delta consecutive instants from ``start``."""

    peer: int
    start: int


def window_starts(flags: list[bool], delta: int) -> list[int]:
    """Every start t0 in [0, p) whose ``delta`` flags from t0, taken mod p, all hold.

    ``flags[t]`` is a pair's twin verdict at round t of a period p = len(flags);
    a window may straddle the period boundary.
    """
    p = len(flags)
    return [t0 for t0 in range(p) if all(flags[(t0 + j) % p] for j in range(delta))]


def parse_tel(text: str) -> TemporalGraph:
    """Parse a Temporal Edge List document.

    Format: '#' comment lines anywhere; the first data line is the header
    ``p=<int> n=<int>``; every further data line is ``t u v`` meaning edge
    {u, v} is present at round t.  The node set is the union of the declared
    range 0..n-1 and all edge endpoints; endpoints beyond n-1 are accepted as
    long as they fit in the ceil(log2 n)-bit ID width derived from the header.
    """
    p = n = None
    width = 0
    edges_at: dict[int, set[tuple[int, int]]] = {}
    endpoints: set[int] = set()
    seen: set[tuple[int, int, int]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if p is None:
            if (
                len(tokens) != 2
                or not tokens[0].startswith("p=")
                or not tokens[1].startswith("n=")
            ):
                raise TelParseError(line_no, f"malformed header {line!r}, expected 'p=<int> n=<int>'")
            try:
                p = int(tokens[0][2:])
                n = int(tokens[1][2:])
            except ValueError:
                raise TelParseError(line_no, f"non-integer header value in {line!r}") from None
            if p < 1:
                raise TelParseError(line_no, f"period must be positive, got {p}")
            if n < 1:
                raise TelParseError(line_no, f"node count must be positive, got {n}")
            width = id_width(n)
            continue
        if len(tokens) != 3:
            raise TelParseError(line_no, f"expected 't u v', got {line!r}")
        try:
            t, u, v = (int(tok) for tok in tokens)
        except ValueError:
            raise TelParseError(line_no, f"non-integer token in {line!r}") from None
        if not 0 <= t < p:
            raise TelParseError(line_no, f"round {t} outside [0, {p})")
        if u < 0 or v < 0:
            raise TelParseError(line_no, "node ids must be non-negative")
        if u == v:
            raise TelParseError(line_no, f"self-loop at node {u}")
        for w in (u, v):
            if w.bit_length() > width:
                raise TelParseError(
                    line_no, f"node id {w} is not representable in {width} bits (n={n})"
                )
        u, v = _normalize_edge(u, v)
        if (t, u, v) in seen:
            raise TelParseError(line_no, f"duplicate edge ({u}, {v}) at round {t}")
        seen.add((t, u, v))
        edges_at.setdefault(t, set()).add((u, v))
        endpoints.update((u, v))

    if p is None:
        raise TelParseError(0, "missing header 'p=<int> n=<int>'")
    return TemporalGraph(p=p, nodes=set(range(n)) | endpoints, edges_at=edges_at, n=n)


def serialize_tel(graph: TemporalGraph) -> str:
    """Render a graph back to .tel text, edges sorted by (t, u, v).

    Only the declared count and the edges are written; nodes outside 0..n-1
    that touch no edge are not expressible in the format.
    """
    lines = [f"p={graph.p} n={graph.n}"]
    for t in range(graph.p):
        for u, v in sorted(graph.edges(t)):
            lines.append(f"{t} {u} {v}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TwinPlant:
    """Directive to edit a random graph so (u, v) become twins on a window.

    In every round of the window the pair is left with at least one common
    neighbour and an outside-neighbourhood difference of exactly
    ``difference``.
    """

    u: int
    v: int
    start: int
    length: int
    difference: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("plant pair must be two distinct nodes")
        if self.length < 1:
            raise ValueError("plant window length must be at least 1")
        if self.difference < 0:
            raise ValueError("plant difference must be non-negative")


def generate_random(
    n: int,
    p: int,
    edge_prob: float,
    plant: TwinPlant | None = None,
    seed: int = 0,
) -> TemporalGraph:
    """Generate a seeded random periodic graph, optionally with planted twins.

    Every potential edge appears in every round independently with probability
    ``edge_prob``.  The same seed and parameters always yield the same graph.
    Plant edits are minimal and prefer adding a shared neighbour over removing
    a distinguishing edge, keeping the instance close to the random ensemble.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if p < 1:
        raise ValueError("period must be positive")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")

    rng = random.Random(seed)
    edges_at: dict[int, set[tuple[int, int]]] = {t: set() for t in range(p)}
    for t in range(p):
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < edge_prob:
                    edges_at[t].add((u, v))

    if plant is not None:
        _apply_plant(edges_at, n, p, plant)

    return TemporalGraph(p=p, nodes=set(range(n)), edges_at=edges_at, n=n)


def _apply_plant(edges_at, n: int, p: int, plant: TwinPlant) -> None:
    u, v = plant.u, plant.v
    for w in (u, v):
        if not 0 <= w < n:
            raise ValueError(f"plant node {w} outside 0..{n - 1}")
    if n < 3:
        raise PlantInfeasibleError("a common neighbour needs a third node")
    if plant.difference > n - 3:
        raise PlantInfeasibleError(
            f"difference {plant.difference} impossible with {n} nodes (max {n - 3})"
        )
    for i in range(plant.length):
        _plant_round(edges_at[(plant.start + i) % p], n, u, v, plant.difference)


def _plant_round(edges: set, n: int, u: int, v: int, want: int) -> None:
    others = [w for w in range(n) if w != u and w != v]

    def add(a, b):
        edges.add(_normalize_edge(a, b))

    def drop(a, b):
        edges.discard(_normalize_edge(a, b))

    def sides():
        side_u = {w for w in others if _normalize_edge(u, w) in edges}
        side_v = {w for w in others if _normalize_edge(v, w) in edges}
        return side_u & side_v, side_u - side_v, side_v - side_u

    common, only_u, only_v = sides()
    if not common:
        if only_u or only_v:
            # Completing an existing one-sided edge both creates the common
            # neighbour and shrinks the difference by one.
            w = min(only_u | only_v)
            add(v if w in only_u else u, w)
        else:
            w = min(others)
            add(u, w)
            add(v, w)
        common, only_u, only_v = sides()

    while len(only_u) + len(only_v) > want:
        w = min(only_u | only_v)
        add(v if w in only_u else u, w)
        common, only_u, only_v = sides()

    while len(only_u) + len(only_v) < want:
        untouched = [w for w in others if w not in common and w not in only_u and w not in only_v]
        if untouched:
            add(u, min(untouched))
        elif len(common) >= 2:
            drop(v, min(common))
        else:
            raise PlantInfeasibleError(
                f"cannot reach difference {want} for ({u}, {v}) with n={n}"
            )
        common, only_u, only_v = sides()
