"""Periodic time-varying graphs: data model, .tel text format, random generation.

A time-varying graph here is a fixed node set together with one undirected
edge set per round index ``t`` in ``[0, p)``; any query at a larger (or
negative) time wraps around, so round ``t`` and round ``t + p`` are
indistinguishable.
"""

import random
import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple


class TelParseError(ValueError):
    """A .tel document violated the format. Carries the offending line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class PlantInfeasibleError(ValueError):
    """The requested twin plant cannot be realized on the given node set."""


# The largest period and declared node count accepted.  A run's cost grows
# with p and n even when the file holds one edge (the 2p rounds, the document's
# node list), so the header is bounded: a two-line file at both limits runs
# `run`, `oracle` and `compare` in either mode in under 3 s and about 210 MB
# on a 2-core VM.
MAX_PERIOD = 100_000
MAX_NODES = 1 << 17


def _size_fault(p: int, n: int) -> str | None:
    """Why a period p and node count n are too large, or None if they fit."""
    if p > MAX_PERIOD:
        return f"period {p} is above the limit {MAX_PERIOD}"
    if n > MAX_NODES:
        return f"node count {n} is above the limit {MAX_NODES}"
    return None


def id_width(n: int) -> int:
    """Number of bits needed to encode one node ID when n nodes are declared.

    This is ceil(log2 n); it is the unit used by all message-size accounting.
    """
    if n < 1:
        raise ValueError("node count must be positive")
    return (n - 1).bit_length()


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


_NO_NEIGHBOURS: frozenset[int] = frozenset()


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
            # True and 1.0 equal an int ID, yet serialize as no .tel token.
            if type(v) is not int or v < 0:
                raise ValueError(f"node id {v!r} is not a non-negative integer")
        if n is None:
            n = max(node_set) + 1 if node_set else 1
        if n < 1:
            raise ValueError("declared node count must be positive")
        fault = _size_fault(p, n)
        if fault:
            raise ValueError(fault)
        width = id_width(n)
        for v in node_set:
            if v.bit_length() > width:
                raise ValueError(
                    f"node id {v} is not representable in {width} bits (n={n})"
                )

        # Per round, neighbour sets of the nodes with an edge: size follows the edges.
        tables = [defaultdict(set) for _ in range(p)]
        for t, pairs in (edges_at or {}).items():
            if not isinstance(t, int) or not 0 <= t < p:
                raise ValueError(f"round index {t!r} is not an integer in [0, {p})")
            table = tables[t]
            for u, v in pairs:
                if u == v:
                    raise ValueError(f"self-loop at node {u}")
                if u not in node_set or v not in node_set:
                    raise ValueError(f"edge ({u}, {v}) has an endpoint outside the node set")
                if type(u) is not int or type(v) is not int:
                    raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
                table[u].add(v)
                table[v].add(u)

        self._p = p
        self._n = n
        self._nodes = node_set
        self._adj = tuple({v: frozenset(s) for v, s in table.items()} for table in tables)
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
        return frozenset(
            (u, v) for u, ns in self._adj[t % self._p].items() for v in ns if u < v
        )

    def neighbours(self, v: int, t: int) -> frozenset[int]:
        """Neighbour set of v at time t; t wraps mod p."""
        found = self._adj[t % self._p].get(v, _NO_NEIGHBOURS)
        if not found and v not in self._nodes:
            raise KeyError(f"unknown node id {v}")
        return found

    def active_nodes(self, t: int):
        """The nodes with an edge at time t, as a read-only view; t wraps mod p."""
        return self._adj[t % self._p].keys()

    def degree(self, v: int, t: int) -> int:
        return len(self.neighbours(v, t))

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
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self._p, self._n, self._nodes, tuple(map(self.edges, range(self._p)))))

    def __repr__(self) -> str:
        m = sum(len(s) for table in self._adj for s in table.values()) // 2
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


class TwinWindow(NamedTuple):
    """A detected window: d-twin with ``peer`` for delta consecutive instants from ``start``."""

    peer: int
    start: int


def twin_windows(verdicts, p: int, delta: int) -> set[TwinWindow]:
    """One node's windows, read from its per-round twin verdicts by circular scan.

    ``verdicts`` holds (peer, t) for each round t at which the pair passed the
    twin test, which is also a window of length 1.  (peer, t0) is reported iff
    the ``delta`` rounds from t0, taken mod p, all have a verdict, so a window
    may straddle the period boundary.  ``delta`` may exceed p: any delta >= p
    asks for a verdict in every round and yields the windows of delta = p, at
    no more than p - 1 lookups per verdict.
    """
    rounds: dict[int, set[int]] = {}
    for peer, t in verdicts:
        rounds.setdefault(peer, set()).add(t)
    later = range(1, min(delta, p))
    return {
        TwinWindow(peer, t0)
        for peer, ts in rounds.items()
        for t0 in ts
        if all((t0 + j) % p in ts for j in later)
    }


def parse_tel(text: str) -> TemporalGraph:
    """Parse a Temporal Edge List document.

    Lines end at LF only; a CR, like any other whitespace, separates tokens,
    so CRLF text parses too.  A line whose first non-blank character is '#'
    is a comment, and blank and comment lines may appear anywhere.  The first other line is the header
    ``p=<int> n=<int>``, with p at most ``MAX_PERIOD`` and n at most
    ``MAX_NODES``; every further line is ``t u v`` meaning edge {u, v}
    is present at round t.  The node set is the union of the declared range
    0..n-1 and all edge endpoints; endpoints beyond n-1 are accepted as long
    as they fit in the ceil(log2 n)-bit ID width derived from the header.

    An edge line is checked in this order, and the first failed check is
    raised as a ``TelParseError`` naming the line: three tokens, all
    integers, each plain ASCII decimal (``-?[0-9]+``, the first token that is
    not is named), the round in [0, p), both IDs non-negative, no self-loop,
    both IDs within the width (the first token that is not is named), and no
    repeat of an edge already given for that round.  Header values must be
    plain ASCII decimal too.
    """
    # int() also reads "+2", "3_0" and non-ASCII digits; only a text that
    # holds one of those characters needs its tokens checked one by one.
    plain = text.isascii() and "_" not in text and "+" not in text
    lines = enumerate(text.split("\n"), start=1)
    for line_no, line in lines:
        tokens = line.split()
        if tokens and tokens[0][0] != "#":
            break
    else:
        raise TelParseError(0, "missing header 'p=<int> n=<int>'")
    if len(tokens) != 2 or not tokens[0].startswith("p=") or not tokens[1].startswith("n="):
        raise TelParseError(
            line_no, f"malformed header {line.strip()!r}, expected 'p=<int> n=<int>'"
        )
    try:
        p = int(tokens[0][2:])
        n = int(tokens[1][2:])
    except ValueError:
        raise TelParseError(line_no, f"non-integer header value in {line.strip()!r}") from None
    if not plain:
        _check_decimal(line_no, (tokens[0][2:], tokens[1][2:]))
    if p < 1:
        raise TelParseError(line_no, f"period must be positive, got {p}")
    if n < 1:
        raise TelParseError(line_no, f"node count must be positive, got {n}")
    fault = _size_fault(p, n)
    if fault:
        raise TelParseError(line_no, fault)
    width = id_width(n)
    max_id = (1 << width) - 1

    edges_at: defaultdict[int, set[tuple[int, int]]] = defaultdict(set)
    for line_no, line in lines:
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        try:
            t, a, b = map(int, tokens)
        except ValueError:
            if len(tokens) != 3:
                raise TelParseError(line_no, f"expected 't u v', got {line.strip()!r}") from None
            raise TelParseError(line_no, f"non-integer token in {line.strip()!r}") from None
        if not plain:
            _check_decimal(line_no, tokens)
        u, v = (a, b) if a < b else (b, a)
        # With the pair ordered, one chain passes every valid edge; _edge_fault
        # names the first check that failed.
        if not (0 <= t < p and 0 <= u < v <= max_id):
            raise TelParseError(line_no, _edge_fault(t, a, b, p, n, width))
        edges = edges_at[t]
        size = len(edges)
        edges.add((u, v))
        if len(edges) == size:
            raise TelParseError(line_no, f"duplicate edge ({u}, {v}) at round {t}")

    nodes = set(range(n))
    for edges in edges_at.values():
        nodes.update(chain.from_iterable(edges))
    return TemporalGraph(p=p, nodes=nodes, edges_at=edges_at, n=n)


_DECIMAL = re.compile(r"-?[0-9]+")


def _check_decimal(line_no: int, tokens) -> None:
    """Raise ``TelParseError`` naming the first token that is not plain ASCII decimal."""
    for token in tokens:
        if not _DECIMAL.fullmatch(token):
            raise TelParseError(line_no, f"{token!r} is not a plain ASCII decimal integer")


def _edge_fault(t: int, u: int, v: int, p: int, n: int, width: int) -> str:
    """Why the edge line ``t u v`` is rejected: the first check it fails."""
    if not 0 <= t < p:
        return f"round {t} outside [0, {p})"
    if u < 0 or v < 0:
        return "node ids must be non-negative"
    if u == v:
        return f"self-loop at node {u}"
    w = u if u.bit_length() > width else v
    return f"node id {w} is not representable in {width} bits (n={n})"


def serialize_tel(graph: TemporalGraph) -> str:
    """Render a graph back to .tel text, edges sorted by (t, u, v).

    Only the declared count and the edges are written; nodes outside 0..n-1
    that touch no edge are not expressible in the format.
    """
    lines = [f"p={graph.p} n={graph.n}"]
    for t, table in enumerate(graph._adj):
        for u in sorted(table):
            for v in sorted(table[u]):
                if u < v:
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
    fault = _size_fault(p, n)
    if fault:
        raise ValueError(fault)

    rng = random.Random(seed)
    edges_at: dict[int, set[tuple[int, int]]] = {t: set() for t in range(p)}
    if edge_prob > 0.0:  # at 0 no draw adds an edge, and nothing else reads rng
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
    side_u = {w for w in others if _normalize_edge(u, w) in edges}
    side_v = {w for w in others if _normalize_edge(v, w) in edges}

    def add(x, side, w):
        edges.add(_normalize_edge(x, w))
        side.add(w)

    # Completing a one-sided edge both makes a common neighbour and shrinks the
    # difference by one; with no edge to complete, the first other node joins both.
    while not side_u & side_v or len(side_u ^ side_v) > want:
        w = min(side_u ^ side_v, default=others[0])
        add(u, side_u, w)
        add(v, side_v, w)

    # Widen the difference: give u an untouched node, or once none is left, take
    # a common neighbour from v.  want <= n - 3, so a difference below it with no
    # untouched node leaves at least two common neighbours.
    untouched = (w for w in others if w not in side_u and w not in side_v)
    while len(side_u ^ side_v) < want:
        w = next(untouched, None)
        if w is None:
            w = min(side_u & side_v)
            edges.discard(_normalize_edge(v, w))
            side_v.discard(w)
        else:
            add(u, side_u, w)
