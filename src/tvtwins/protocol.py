"""Per-node state machine of the two-phase twin-detection protocol.

Rounds 0..p-1 (phase 1): broadcast own (id, degree) and record the reports
received from current neighbours.  Rounds p..2p-1 (phase 2): forward the
report list collected one period earlier; from the forwarded entries, each
node counts common neighbours per candidate and grows per-candidate runs of
consecutive twin rounds.  A run reaching the window length emits a window in
real time; windows that straddle the period boundary are recovered by a
circular scan at the end.
"""

from dataclasses import dataclass

from .graph import TwinWindow, window_starts
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


@dataclass(frozen=True)
class SketchPhase2Message:
    # (id, degree, sketch of id's neighbourhood at the matching time).
    entries: tuple[tuple[int, int, NeighbourhoodSketch], ...]


def message_bits(msg, width: int) -> int:
    """Logical message size: IDs and degrees are width-bit fields."""
    if isinstance(msg, Phase1Message):
        return 2 * width
    if isinstance(msg, Phase2Message):
        return len(msg.entries) * 2 * width
    if isinstance(msg, SketchPhase2Message):
        return sum(2 * width + sk.bit_size(width) for _, _, sk in msg.entries)
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
        # Per-round accumulators, cleared by end_of_round.
        self.common_count: dict[int, int] = {}
        self.reported_degree: dict[int, int] = {}
        self.entry_sketches: dict[int, NeighbourhoodSketch] = {}
        # id -> length of the current run of consecutive twin rounds.
        self.run_length: dict[int, int] = {}
        # time index -> ids detected as d-twins at that time.
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
        if isinstance(msg, SketchPhase2Message):
            for entry_id, degree, sk in msg.entries:
                if entry_id == self.node_id:
                    continue  # every neighbour echoes us back; never count ourselves
                self.common_count[entry_id] = self.common_count.get(entry_id, 0) + 1
                self.reported_degree[entry_id] = degree
                self.entry_sketches[entry_id] = sk
        elif isinstance(msg, Phase2Message):
            counts = self.common_count
            degrees = self.reported_degree
            for entry_id, degree in msg.entries:
                if entry_id == self.node_id:
                    continue
                counts[entry_id] = counts.get(entry_id, 0) + 1
                degrees[entry_id] = degree
        else:
            raise TypeError(f"not a protocol message: {msg!r}")

    def end_of_round(self, round_no: int, degree: int) -> None:
        """Evaluate all candidates named this round and update twin runs.

        Runs at the round barrier regardless of how many messages arrived, so
        isolated nodes correctly reset all their runs.
        """
        if not self.p <= round_no < 2 * self.p:
            raise ProtocolError(f"evaluation only happens in rounds {self.p}..{2 * self.p - 1}")
        t = round_no - self.p
        counts = self.common_count

        # A candidate named by nobody this round has no common neighbour: run over.
        for stale in [twin_id for twin_id in self.run_length if twin_id not in counts]:
            del self.run_length[stale]

        reporters = {sender for sender, _ in self.neighbour_reports[t]}
        own_sketch = None
        if self.sketch_params is not None:
            own_sketch = build_sketch(reporters, self.sketch_params)

        detected = self.twins_at[t]
        for twin_id, count in counts.items():
            # The raw degrees overcount by one each when the pair is adjacent;
            # adjacency is visible in the phase-1 history.
            adj = 1 if twin_id in reporters else 0
            if own_sketch is not None:
                ok = sketch_d_twin_test(own_sketch, self.entry_sketches[twin_id], adj, self.d)
            else:
                difference = (degree - adj) + (self.reported_degree[twin_id] - adj) - 2 * count
                if self.trace is not None:
                    self.trace[(t, twin_id)] = difference
                ok = difference <= self.d
            if ok:
                detected.add(twin_id)
                run = self.run_length.get(twin_id, 0) + 1
                self.run_length[twin_id] = run
                if run >= self.delta:
                    window = TwinWindow(twin_id, (t - self.delta + 1) % self.p)
                    self.realtime_log.append((window, round_no))
            else:
                self.run_length.pop(twin_id, None)

        self.common_count = {}
        self.reported_degree = {}
        self.entry_sketches = {}
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
