"""Deterministic barrier-synchronous engine driving the protocol for 2p rounds.

Each round has three strict phases over the nodes with an edge at its time:
each produces its message from pre-round state (with its current true degree
injected by the engine), all messages are delivered along the current edge set,
then in phase 2 each runs its end-of-round evaluation.  Runs are deterministic.
"""

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from . import oracle
from .graph import ProblemParams, TemporalGraph, TwinWindow, id_width, twin_windows
from .protocol import NodeState, message_bits
# build_sketch and sketch_d_twin_test are not called here (the engine builds
# each round's sketches together, the audit reads the nodes' recorded
# verdicts); they stay bound because perfbench's tracer wraps them here.
from .sketch import SketchParams, build_sketch, build_sketches, sketch_d_twin_test

MODES = ("exact", "sketch")


@dataclass(frozen=True)
class RunConfig:
    params: ProblemParams
    mode: str = "exact"
    sketch_params: SketchParams | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "sketch" and self.sketch_params is None:
            raise ValueError("sketch mode requires sketch_params")


def graph_digest(graph: TemporalGraph) -> dict:
    """Structural stats of an instance, the same for every route: size, maximum
    degree, ID width and the phase-2 size bound max_degree * 2 * ceil(log2 n)."""
    width = id_width(graph.n)
    max_degree = graph.max_degree()
    return {
        "n": graph.n,
        "max_degree": max_degree,
        "id_width": width,
        "phase2_bound_bits": max_degree * 2 * width,
    }


class RoundRecord(NamedTuple):
    round: int
    t: int
    phase: int
    messages: int
    deliveries: int
    max_bits: int
    total_bits: int


@dataclass
class RoundStats:
    """Message accounting for one run, against the phase-2 size bound of
    :func:`graph_digest`."""

    n: int
    max_degree: int
    id_width: int
    phase2_bound_bits: int
    messages: int = 0
    deliveries: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    max_phase2_bits: int = 0
    per_round: list[RoundRecord] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {**asdict(self), "per_round": [r._asdict() for r in self.per_round]}


@dataclass
class RunResult:
    windows: dict[int, set[TwinWindow]]
    stats: RoundStats
    rounds_executed: int


class Simulation:
    """One protocol execution; step() advances a single synchronous round."""

    def __init__(self, graph: TemporalGraph, config: RunConfig):
        self.graph = graph
        self.config = config
        p = graph.p
        sp = config.sketch_params if config.mode == "sketch" else None
        params = config.params
        # Only a node with an edge at t sends, hears or decides anything in
        # rounds t and p + t: each round walks just those, in ascending ID
        # order, and only a node with an edge in some round gets a state.
        self._active = [sorted(graph.active_nodes(t)) for t in range(p)]
        self.states = {
            v: NodeState(v, p, params.delta, params.d, sketch_params=sp)
            for v in sorted(set().union(*self._active))
        }
        self.round = 0
        self.stats = RoundStats(**graph_digest(graph))

    def step(self) -> None:
        graph = self.graph
        p = graph.p
        if self.round >= 2 * p:
            raise RuntimeError(f"all {2 * p} rounds already executed")
        round_no = self.round
        t = round_no % p
        phase2 = round_no >= p

        states = self.states
        active = self._active[t]
        if not active:  # no node sends, hears or decides anything
            self.stats.per_round.append(RoundRecord(round_no, t, 2 if phase2 else 1, 0, 0, 0, 0))
            self.round += 1
            return
        granted = None
        if phase2 and self.config.mode == "sketch":
            # The engine grants each phase-2 entry the sketch of the named node's
            # neighbourhood at t, as it grants every node its current degree.  An
            # entry names a neighbour of its forwarder, so only the round's active
            # nodes need one; the table is built here and dropped with the round.
            sp = self.config.sketch_params
            granted = build_sketches({v: graph.neighbours(v, t) for v in active}, sp)
        # Senders go in ascending order, so every receiver hears its senders in
        # ascending order whatever the order of a neighbour set: hence determinism.
        outbox = []
        deliveries = total_bits = max_bits = 0
        for v in active:
            neighbours = graph.neighbours(v, t)
            msg = states[v].send_message(round_no, len(neighbours), granted)
            outbox.append((msg, neighbours))
            bits = message_bits(msg, self.stats.id_width)
            deliveries += len(neighbours)
            total_bits += bits
            if bits > max_bits:
                max_bits = bits

        for msg, neighbours in outbox:
            for w in neighbours:
                states[w].receive(msg, round_no)

        if phase2:
            for v, (_, neighbours) in zip(active, outbox):
                states[v].end_of_round(round_no, len(neighbours))

        self.stats.messages += len(active)
        self.stats.deliveries += deliveries
        self.stats.total_bits += total_bits
        self.stats.max_message_bits = max(self.stats.max_message_bits, max_bits)
        if phase2:
            self.stats.max_phase2_bits = max(self.stats.max_phase2_bits, max_bits)
        self.stats.per_round.append(
            RoundRecord(
                round_no, t, 2 if phase2 else 1, len(active), deliveries, max_bits, total_bits
            )
        )
        self.round += 1

    def run(self) -> RunResult:
        while self.round < 2 * self.graph.p:
            self.step()
        states = self.states
        windows = {
            v: states[v].finalize() if v in states else set() for v in sorted(self.graph.nodes)
        }
        return RunResult(windows=windows, stats=self.stats, rounds_executed=self.round)


def run(graph: TemporalGraph, config: RunConfig) -> RunResult:
    """Execute the full protocol (exactly 2p rounds) and finalize every node."""
    return Simulation(graph, config).run()


@dataclass
class CompareReport:
    """Protocol output versus the brute-force reference on the same instance."""

    equal: bool
    differences: dict[int, tuple[frozenset, frozenset]]  # node -> (missing, extra)
    rounds_executed: int
    decisions: int
    mismatched_decisions: int
    boundary_decisions: int

    @property
    def mismatch_rate(self) -> float:
        return self.mismatched_decisions / self.decisions if self.decisions else 0.0


def compare_with_oracle(graph: TemporalGraph, config: RunConfig) -> CompareReport:
    """Run the protocol and the reference; report per-node window differences.

    The reference is one oracle pass at delta = 1, whose windows are the
    oracle's verdict for every pair and round; the delta windows are read
    from those verdicts by ``twin_windows``, as in the protocol and the oracle.

    In sketch mode, additionally audit every per-round decision (each pair
    with at least one common neighbour, counted by the run's nodes as they
    decide): count decisions the sketch flipped, and how many of those lie
    within the estimator's error band around the thresholds (difference
    within 2*(epsilon*max_degree + 0.5) of d, or a common-neighbour count
    within epsilon*max_degree + 0.5 of the >= 1 test).
    """
    sim = Simulation(graph, config)
    result = sim.run()
    verdicts = oracle.all_windows(graph, ProblemParams(1, config.params.d))
    expected = {v: twin_windows(s, graph.p, config.params.delta) for v, s in verdicts.items()}
    differences = {}
    for v in sorted(graph.nodes):
        missing = frozenset(expected[v] - result.windows[v])
        extra = frozenset(result.windows[v] - expected[v])
        if missing or extra:
            differences[v] = (missing, extra)

    audit = _audit_sketch_decisions(sim, verdicts) if config.mode == "sketch" else (0, 0, 0)
    return CompareReport(not differences, differences, result.rounds_executed, *audit)


def _audit_sketch_decisions(
    sim: Simulation, verdicts: dict[int, set[TwinWindow]]
) -> tuple[int, int, int]:
    """Compare every per-round decision the run recorded with the oracle's:
    return how many there are, how many differ and how many of those lie in the error band.

    The sketch decision of a pair (u, v), u < v, at t is whether u's
    ``verdicts()`` hold (v, t); the exact one is whether the oracle's windows
    of length 1 list (v, t) for u.  Both sides name only pairs with a common
    neighbour, so the mismatches are the symmetric difference of the two.
    The pairs are only counted, by the run itself: each node adds up the
    candidates it decides (``NodeState.decided``), so each pair counts once
    from each end.  Only a mismatched pair is profiled, to place it in the
    error band.
    """
    graph = sim.graph
    epsilon = sim.config.sketch_params.epsilon
    d = sim.config.params.d
    sketched = {(u, v, t) for u, s in sim.states.items() for v, t in s.verdicts() if v > u}
    exact = {(u, v, t) for u, windows in verdicts.items() for v, t in windows if v > u}
    mismatched = sketched ^ exact
    boundary = 0
    for u, v, t in mismatched:
        profile = oracle.pair_profile(graph, u, v, t)
        scale = epsilon * max(graph.degree(u, t), graph.degree(v, t))
        near_difference = abs(profile.difference - d) <= 2 * scale + 1
        near_common = profile.common_count <= scale + 0.5
        if near_difference or near_common:
            boundary += 1
    decisions = sum(state.decided for state in sim.states.values()) // 2
    return decisions, len(mismatched), boundary
