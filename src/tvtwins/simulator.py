"""Deterministic barrier-synchronous engine driving the protocol for 2p rounds.

Each round has three strict phases: every node produces its message from
pre-round state (with its current true degree injected by the engine), all
messages are delivered along the current edge set, then every node runs its
end-of-round evaluation.  Two runs with identical inputs are identical.
"""

import time
from dataclasses import dataclass, field
from typing import NamedTuple

from . import oracle
from .graph import ProblemParams, TemporalGraph, TwinWindow, id_width
from .protocol import (
    NodeState,
    SketchPhase2Message,
    message_bits,
)
from .sketch import SketchParams, build_sketch, sketch_d_twin_test

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
        return {
            "n": self.n,
            "max_degree": self.max_degree,
            "id_width": self.id_width,
            "phase2_bound_bits": self.phase2_bound_bits,
            "messages": self.messages,
            "deliveries": self.deliveries,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "max_phase2_bits": self.max_phase2_bits,
            "per_round": [r._asdict() for r in self.per_round],
        }


@dataclass
class RunResult:
    windows: dict[int, set[TwinWindow]]
    stats: RoundStats
    rounds_executed: int


class Simulation:
    """One protocol execution; step() advances a single synchronous round."""

    def __init__(self, graph: TemporalGraph, config: RunConfig, trace_values: bool = False):
        config.params.validate_for_period(graph.p)
        self.graph = graph
        self.config = config
        self._nodes = sorted(graph.nodes)
        p = graph.p
        # Sorted neighbour lists fix the delivery order, hence determinism.
        self._adj = [
            {v: sorted(graph.neighbours(v, t)) for v in self._nodes} for t in range(p)
        ]
        sp = config.sketch_params if config.mode == "sketch" else None
        self._sketches = None
        if sp is not None:
            # The engine grants each phase-2 entry the sketch of the named
            # node's neighbourhood at the matching time, the same way it
            # grants every node its current degree.
            self._sketches = [
                {v: build_sketch(graph.neighbours(v, t), sp) for v in self._nodes}
                for t in range(p)
            ]
        params = config.params
        self.states = {
            v: NodeState(v, p, params.delta, params.d, sketch_params=sp, trace=trace_values)
            for v in self._nodes
        }
        self.round = 0
        self.stats = RoundStats(**graph_digest(graph))

    def step(self) -> None:
        p = self.graph.p
        if self.round >= 2 * p:
            raise RuntimeError(f"all {2 * p} rounds already executed")
        round_no = self.round
        t = round_no % p
        adj = self._adj[t]
        phase2 = round_no >= p

        outbox = []
        msgs = deliveries = total_bits = max_bits = 0
        for v in self._nodes:
            neighbours = adj[v]
            msg = self.states[v].send_message(round_no, len(neighbours))
            if phase2 and self._sketches is not None:
                granted = self._sketches[t]
                msg = SketchPhase2Message(
                    tuple((i, dg, granted[i]) for i, dg in msg.entries)
                )
            if not neighbours:
                continue  # produced, delivered to nobody
            outbox.append((msg, neighbours))
            bits = message_bits(msg, self.stats.id_width)
            msgs += 1
            deliveries += len(neighbours)
            total_bits += bits
            if bits > max_bits:
                max_bits = bits

        for msg, neighbours in outbox:
            for w in neighbours:
                self.states[w].receive(msg, round_no)

        if phase2:
            for v in self._nodes:
                self.states[v].end_of_round(round_no, len(adj[v]))

        self.stats.messages += msgs
        self.stats.deliveries += deliveries
        self.stats.total_bits += total_bits
        self.stats.max_message_bits = max(self.stats.max_message_bits, max_bits)
        if phase2:
            self.stats.max_phase2_bits = max(self.stats.max_phase2_bits, max_bits)
        self.stats.per_round.append(
            RoundRecord(round_no, t, 2 if phase2 else 1, msgs, deliveries, max_bits, total_bits)
        )
        self.round += 1

    def run(self) -> RunResult:
        total = 2 * self.graph.p
        while self.round < total:
            self.step()
        windows = {v: self.states[v].finalize() for v in self._nodes}
        return RunResult(windows=windows, stats=self.stats, rounds_executed=total)


def run(graph: TemporalGraph, config: RunConfig) -> RunResult:
    """Execute the full protocol (exactly 2p rounds) and finalize every node."""
    return Simulation(graph, config).run()


@dataclass
class CompareReport:
    """Protocol output versus the brute-force reference on the same instance."""

    equal: bool
    differences: dict[int, tuple[frozenset, frozenset]]  # node -> (missing, extra)
    rounds_executed: int
    elapsed: float
    decisions: int = 0
    mismatched_decisions: int = 0
    boundary_decisions: int = 0

    @property
    def mismatch_rate(self) -> float:
        return self.mismatched_decisions / self.decisions if self.decisions else 0.0


def compare_with_oracle(graph: TemporalGraph, config: RunConfig) -> CompareReport:
    """Run the protocol and the reference; report per-node window differences.

    In sketch mode, additionally audit every per-round decision (each pair
    with at least one common neighbour): count decisions the sketch flipped,
    and how many of those lie within the estimator's error band around the
    thresholds (difference within 2*(epsilon*max_degree + 0.5) of d, or a
    common-neighbour count within epsilon*max_degree + 0.5 of the >= 1 test).
    """
    start = time.perf_counter()
    sim = Simulation(graph, config)
    result = sim.run()
    expected = oracle.all_windows(graph, config.params)
    differences = {}
    for v in sorted(graph.nodes):
        missing = frozenset(expected[v] - result.windows[v])
        extra = frozenset(result.windows[v] - expected[v])
        if missing or extra:
            differences[v] = (missing, extra)

    report = CompareReport(
        equal=not differences,
        differences=differences,
        rounds_executed=result.rounds_executed,
        elapsed=time.perf_counter() - start,
    )
    if config.mode == "sketch":
        _audit_sketch_decisions(sim, report)
    return report


def _audit_sketch_decisions(sim: Simulation, report: CompareReport) -> None:
    """Replay every per-round decision with the sketches the run granted."""
    graph, sketches = sim.graph, sim._sketches
    sp = sim.config.sketch_params
    d = sim.config.params.d
    nodes = sim._nodes
    for t in range(graph.p):
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                profile = oracle.pair_profile(graph, u, v, t)
                if profile.common_count < 1:
                    continue
                report.decisions += 1
                exact_decision = profile.difference <= d
                adj = 1 if graph.adjacent(u, v, t) else 0
                sketch_decision = sketch_d_twin_test(sketches[t][u], sketches[t][v], adj, d)
                if sketch_decision == exact_decision:
                    continue
                report.mismatched_decisions += 1
                scale = sp.epsilon * max(graph.degree(u, t), graph.degree(v, t))
                near_difference = abs(profile.difference - d) <= 2 * scale + 1
                near_common = profile.common_count <= scale + 0.5
                if near_difference or near_common:
                    report.boundary_decisions += 1
