"""Per-node state machine of the two-phase twin-detection protocol.

Rounds 0..p-1 (phase 1): broadcast own (id, degree) and record the reports
received from current neighbours.  Rounds p..2p-1 (phase 2): forward the
report list collected one period earlier; from the forwarded entries, each
node counts common neighbours per candidate (in sketch mode it keeps each
candidate's granted sketch instead) and records the candidates it finds to be
twins in that round.  A twin verdict that completes a window of such rounds
emits the window in real time; windows that straddle the period boundary are
recovered by a circular scan at the end.
"""

from dataclasses import dataclass
from operator import attrgetter

from .graph import TwinWindow, window_starts
# build_sketch is not called here (a node takes its own sketch from its echoed
# phase-2 entry); it stays bound because perfbench's tracer wraps it here.
from .sketch import NeighbourhoodSketch, SketchParams, build_sketch, sketch_d_twin_test


class ProtocolError(RuntimeError):
    """Protocol driven outside its 2p-round contract."""


@dataclass(frozen=True)
class Phase1Message:
    sender: int
    degree: int


@dataclass(frozen=True)
class Phase2Message:
    # (id, degree) pairs, forwarded verbatim from the matching phase-1 round.
    entries: tuple[tuple[int, int], ...]
    # Sketch mode only: entry id -> the sketch of that node's neighbourhood at
    # the matching time, granted by the engine.
    sketches: dict[int, NeighbourhoodSketch] | None = None


def message_bits(msg, width: int) -> int:
    """Logical message size: IDs and degrees are width-bit fields."""
    if isinstance(msg, Phase1Message):
        return 2 * width
    if isinstance(msg, Phase2Message):
        bits = len(msg.entries) * 2 * width
        if msg.sketches:
            # The sum of every sketch's bit_size, in closed form.
            sketches = msg.sketches.values()
            live = sum(map(len, map(attrgetter("mins"), sketches)))
            bits += len(sketches) * (16 + width) + 64 * live
        return bits
    raise TypeError(f"not a protocol message: {msg!r}")


class NodeState:
    """State owned by one protocol participant.

    The node never learns the graph: it sees only the degree injected by the
    environment each round and the messages of its current neighbours.
    """

    def __init__(
        self,
        node_id: int,
        p: int,
        delta: int,
        d: int,
        sketch_params: SketchParams | None = None,
        trace: bool = False,
    ):
        self.node_id = node_id
        self.p = p
        self.delta = delta
        self.d = d
        self.sketch_params = sketch_params
        # Phase-1 reports per round: list of (sender, degree), one per neighbour.
        self.neighbour_reports: list[list[tuple[int, int]]] = [[] for _ in range(p)]
        # Per-round accumulators, cleared by end_of_round.  common_count holds
        # exactly this round's candidates: in exact mode each maps to the
        # number of forwarders naming it, in sketch mode to its granted sketch.
        self.common_count: dict[int, int] | dict[int, NeighbourhoodSketch] = {}
        self.reported_degree: dict[int, int] = {}
        # Sketch mode: this node's own sketch, echoed back by every neighbour.
        self.own_sketch: NeighbourhoodSketch | None = None
        # time index -> ids detected as d-twins at that time: the node's only
        # record of its verdicts, from which every window is read.
        self.twins_at: list[set[int]] = [set() for _ in range(p)]
        # (window, round at which it was emitted), for real-time availability.
        self.realtime_log: list[tuple[TwinWindow, int]] = []
        # (t, id) -> evaluated difference, populated only when tracing.
        self.trace: dict[tuple[int, int], int] | None = {} if trace else None
        self._evaluated_rounds = 0

    def send_message(self, round_no: int, degree: int):
        """Message for this round: own (id, degree) in phase 1, the matching
        phase-1 report list (verbatim) in phase 2."""
        if round_no < self.p:
            return Phase1Message(self.node_id, degree)
        if round_no < 2 * self.p:
            return Phase2Message(tuple(self.neighbour_reports[round_no - self.p]))
        raise ProtocolError(f"round {round_no}: protocol terminated after {2 * self.p} rounds")

    def receive(self, msg, round_no: int) -> None:
        if isinstance(msg, Phase1Message):
            self.neighbour_reports[round_no].append((msg.sender, msg.degree))
            return
        if not isinstance(msg, Phase2Message):
            raise TypeError(f"not a protocol message: {msg!r}")
        counts = self.common_count
        if msg.sketches:
            # The verdict reads sketches only, so no forwarder is counted.
            counts.update(msg.sketches)
            self.own_sketch = counts.pop(self.node_id, self.own_sketch)
        else:
            degrees = self.reported_degree
            for entry_id, degree in msg.entries:
                if entry_id == self.node_id:
                    continue
                counts[entry_id] = counts.get(entry_id, 0) + 1
                degrees[entry_id] = degree

    def end_of_round(self, round_no: int, degree: int) -> None:
        """Evaluate all candidates named this round and record the twins in
        ``twins_at``.

        Runs at the round barrier regardless of how many messages arrived; a
        candidate named by nobody has no common neighbour and is no twin.
        """
        if not self.p <= round_no < 2 * self.p:
            raise ProtocolError(f"evaluation only happens in rounds {self.p}..{2 * self.p - 1}")
        t = round_no - self.p
        counts = self.common_count
        # A window ending at t starts at t - delta + 1; windows that would start
        # before round 0 wrap, and only the final scan recovers them.
        start = t - self.delta + 1
        earlier = self.twins_at[start:t] if start >= 0 else None

        reporters = {sender for sender, _ in self.neighbour_reports[t]}
        own_sketch = self.own_sketch
        if self.sketch_params is not None and counts and own_sketch is None:
            raise ProtocolError(
                f"round {round_no}: candidates named but no neighbour echoed this node's sketch"
            )

        detected = self.twins_at[t]
        d = self.d
        own_size = own_sketch.exact_size if own_sketch is not None else 0
        for twin_id, value in counts.items():
            # The raw degrees overcount by one each when the pair is adjacent;
            # adjacency is visible in the phase-1 history.
            adj = 1 if twin_id in reporters else 0
            if own_sketch is not None:
                # Size filter: the twin test's common count is at most the
                # smaller size, so its difference is at least the size gap
                # less 2*adj; a pair with a larger gap is no twin, and no
                # sketch values need comparing.
                ok = abs(own_size - value.exact_size) - 2 * adj <= d and sketch_d_twin_test(
                    own_sketch, value, adj, d
                )
            else:
                difference = (degree - adj) + (self.reported_degree[twin_id] - adj) - 2 * value
                if self.trace is not None:
                    self.trace[(t, twin_id)] = difference
                ok = difference <= d
            if ok:
                detected.add(twin_id)
                if earlier is not None and all(twin_id in twins for twins in earlier):
                    self.realtime_log.append((TwinWindow(twin_id, start), round_no))

        self.common_count = {}
        self.reported_degree = {}
        self.own_sketch = None
        self._evaluated_rounds += 1

    def finalize(self) -> set[TwinWindow]:
        """Canonical window set after all 2p rounds, by circular scan.

        A superset of the real-time detections, which all lie inside the
        period: the scan adds the windows straddling the period boundary.
        """
        if self._evaluated_rounds < self.p:
            raise ProtocolError(
                f"finalize needs all {self.p} evaluation rounds, saw {self._evaluated_rounds}"
            )
        twins_at = self.twins_at
        return {
            TwinWindow(twin_id, t0)
            for twin_id in set().union(*twins_at)
            for t0 in window_starts([twin_id in detected for detected in twins_at], self.delta)
        }
