"""Per-node state machine of the two-phase twin-detection protocol.

Every message is a tuple of (id, degree) entries; the round number picks the
phase.  Rounds 0..p-1 (phase 1): broadcast the one entry (own id, degree) and
record those of current neighbours.  Rounds p..2p-1 (phase 2): forward the
entries collected one period earlier; from them, each node counts common
neighbours per candidate (in sketch mode it keeps each candidate's granted
sketch instead) and records the candidates it finds to be twins in that round.
The verdicts for t are final at round p+t, so a window inside the period is
known once its last round is evaluated; ``finalize`` reads every window,
including those that straddle the period boundary, from the verdicts.
"""

from dataclasses import dataclass
from operator import attrgetter

from .graph import TwinWindow, twin_windows
# build_sketch is not called here (a node takes its own sketch from its echoed
# phase-2 entry); it stays bound because perfbench's tracer wraps it here.
from .sketch import NeighbourhoodSketch, SketchParams, build_sketch, sketch_d_twin_test


class ProtocolError(RuntimeError):
    """Protocol driven outside its 2p-round contract."""


@dataclass(frozen=True)
class Message:
    # (id, degree) pairs: the sender's own in phase 1, forwarded ones in phase 2.
    entries: tuple[tuple[int, int], ...]
    # Sketch mode only: entry id -> the sketch of that node's neighbourhood at
    # the matching time, granted by the engine.
    sketches: dict[int, NeighbourhoodSketch] | None = None


def message_bits(msg: Message, width: int) -> int:
    """Logical message size: IDs and degrees are width-bit fields."""
    bits = len(msg.entries) * 2 * width
    if msg.sketches:
        # Each sketch: a 16-bit count, 64 bits per live value, a width-bit exact size.
        sketches = msg.sketches.values()
        live = sum(map(len, map(attrgetter("mins"), sketches)))
        bits += len(sketches) * (16 + width) + 64 * live
    return bits


class NodeState:
    """State owned by one protocol participant.

    The node never learns the graph: it sees only what the environment injects
    each round (its degree and, in sketch mode, the granted sketch table) and
    the messages of its current neighbours.
    """

    def __init__(
        self,
        node_id: int,
        p: int,
        delta: int,
        d: int,
        sketch_params: SketchParams | None = None,
    ):
        self.node_id = node_id
        self.p = p
        self.delta = delta
        self.d = d
        self.sketch_params = sketch_params
        # Phase-1 entries of each round with an edge: (sender, degree), one per neighbour.
        self.neighbour_reports: dict[int, list[tuple[int, int]]] = {}
        # Per-round accumulators, cleared by end_of_round.  common_count holds
        # exactly this round's candidates: in exact mode each maps to the
        # number of forwarders naming it, in sketch mode to its granted sketch.
        self.common_count: dict[int, int] | dict[int, NeighbourhoodSketch] = {}
        self.reported_degree: dict[int, int] = {}
        # Sketch mode: this node's own sketch, echoed back by every neighbour.
        self.own_sketch: NeighbourhoodSketch | None = None
        # time index -> ids detected as d-twins at that time (one shared empty
        # set until evaluated): the node's only record of its verdicts.  Slot t
        # is written once, at round p+t, and is final from then on.
        self.twins_at: list[set[int] | frozenset[int]] = [frozenset()] * p
        self._evaluated_rounds = 0

    def send_message(self, round_no: int, degree: int, granted=None) -> Message:
        """Message for this round: own (id, degree) in phase 1, the matching phase-1
        entries (verbatim) in phase 2, each with its ``granted`` sketch in sketch mode."""
        if round_no < self.p:
            return Message(((self.node_id, degree),))
        if round_no < 2 * self.p:
            entries = tuple(self.neighbour_reports.get(round_no - self.p, ()))
            if granted is None:
                return Message(entries)
            return Message(entries, {i: granted[i] for i, _ in entries})
        raise ProtocolError(f"round {round_no}: protocol terminated after {2 * self.p} rounds")

    def receive(self, msg: Message, round_no: int) -> None:
        if round_no < self.p:
            self.neighbour_reports.setdefault(round_no, []).extend(msg.entries)
            return
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

        Runs at the round barrier of each round in which the node has an edge;
        a candidate named by nobody has no common neighbour and is no twin.
        """
        if not self.p <= round_no < 2 * self.p:
            raise ProtocolError(f"evaluation only happens in rounds {self.p}..{2 * self.p - 1}")
        t = round_no - self.p
        counts = self.common_count
        reporters = {sender for sender, _ in self.neighbour_reports.get(t, ())}
        own_sketch = self.own_sketch
        if self.sketch_params is not None and counts and own_sketch is None:
            raise ProtocolError(
                f"round {round_no}: candidates named but no neighbour echoed this node's sketch"
            )

        detected = self.twins_at[t] = set()
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
                ok = difference <= d
            if ok:
                detected.add(twin_id)

        self.common_count = {}
        self.reported_degree = {}
        self.own_sketch = None
        self._evaluated_rounds += 1

    def finalize(self) -> set[TwinWindow]:
        """Canonical window set after all 2p rounds, read from ``twins_at`` by ``twin_windows``.

        The verdicts for t are final at round p+t, so a window (peer, s) inside
        the period could be read at round p+s+delta-1; one that straddles the
        period boundary needs the verdicts of both ends of the period.
        """
        if not self._evaluated_rounds or self._evaluated_rounds < len(self.neighbour_reports):
            raise ProtocolError(
                f"finalize needs every round with an edge evaluated, saw {self._evaluated_rounds}"
            )
        verdicts = ((peer, t) for t, twins in enumerate(self.twins_at) for peer in twins)
        return twin_windows(verdicts, self.p, self.delta)
