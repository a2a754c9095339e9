"""Per-node state machine of the two-phase twin-detection protocol.

Every message is a tuple of (id, degree) entries; the round number picks the
phase.  Rounds 0..p-1 (phase 1): broadcast the one entry (own id, degree) and
record those of current neighbours.  Rounds p..2p-1 (phase 2): forward the
entries collected one period earlier.  From them each node fills one table per
round, counting forwarders per (id, degree) entry within d of its own degree
(in sketch mode keeping each named node's granted sketch), and at the round's
end takes out its own echoed entry and records the twins among the rest, one
record per evaluated round.  A sketch-mode node reads no field of a sketch: it
hands its own and its candidates' to ``sketch_d_twin_test``, which decides them
all at once.
The verdicts for t are final at round p+t, so a window inside the period is
known once its last round is evaluated; ``finalize`` reads every window,
including those that straddle the period boundary, from the verdicts.
"""

from dataclasses import dataclass

from .graph import TwinWindow, twin_windows
# build_sketch is not called here (a node reads its own sketch from its echoed
# phase-2 entry); it stays bound because perfbench's tracer wraps it here.
from .sketch import NeighbourhoodSketch, SketchParams, build_sketch, sketch_d_twin_test, wire_bits


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
    """Logical message size: IDs and degrees are width-bit fields, and each
    sketch costs what :func:`wire_bits` charges it."""
    bits = len(msg.entries) * 2 * width
    if msg.sketches:
        bits += wire_bits(msg.sketches.values(), width)
    return bits


class NodeState:
    """State owned by one protocol participant.

    The node never learns the graph: it sees only what the environment injects
    each round (its degree and, in sketch mode, the granted sketch table) and
    the messages of its current neighbours.  It keeps a record only for the
    rounds it acts in, so its memory follows its edges, not the period.
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
        # This round's table, emptied by end_of_round: in exact mode each
        # forwarded (id, degree) entry within the degree band, mapped to the
        # number of forwarders naming it; in sketch mode each named id, mapped
        # to its granted sketch.  Both hold this node's own echoed entry.
        self.common_count: dict[tuple[int, int], int] | dict[int, NeighbourhoodSketch] = {}
        # Evaluated time index -> ids detected as d-twins at that time: the
        # node's only record of its verdicts, one key per evaluated round.
        # Key t is written once, at round p+t, and is final from then on.
        self.evaluated: dict[int, set[int]] = {}
        # Sketch mode only: candidates decided, each pair counted from both ends.
        self.decided = 0

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
        # This node's degree at t is the number of phase-1 reports it heard then.
        try:
            degree = len(self.neighbour_reports[round_no - self.p])
        except KeyError:
            raise ProtocolError(
                f"round {round_no}: phase-2 delivery without a phase-1 report"
            ) from None
        counts = self.common_count
        if msg.sketches:
            # The verdict reads sketches only, so no forwarder is counted.
            counts.update(msg.sketches)
        else:
            # Size filter: the common count is at most the smaller outside
            # degree, so the difference is at least the degree gap, and an
            # entry outside [deg - d, deg + d] cannot be a twin.
            low, high = degree - self.d, degree + self.d
            for entry in msg.entries:
                if low <= entry[1] <= high:
                    counts[entry] = counts.get(entry, 0) + 1

    def end_of_round(self, round_no: int, degree: int) -> None:
        """Evaluate all candidates named this round and record the twins in
        ``evaluated``, under the round's time index.

        Runs at the round barrier of each round in which the node has an edge;
        a candidate named by nobody has no common neighbour and is no twin, nor,
        in exact mode, is one whose degree lies outside the band.
        """
        if not self.p <= round_no < 2 * self.p:
            raise ProtocolError(f"evaluation only happens in rounds {self.p}..{2 * self.p - 1}")
        t = round_no - self.p
        counts, self.common_count = self.common_count, {}
        exact = self.sketch_params is None
        own = counts.pop((self.node_id, degree) if exact else self.node_id, None)
        if own is None and counts:
            raise ProtocolError(
                f"round {round_no}: candidates named but no neighbour echoed this node's entry"
            )

        # The raw degrees overcount by one each when the pair is adjacent;
        # adjacency is visible in the phase-1 history.
        reporters = {sender for sender, _ in self.neighbour_reports.get(t, ())}
        d = self.d
        if exact:
            detected = self.evaluated[t] = set()
            for (twin_id, twin_degree), common in counts.items():
                adj = 1 if twin_id in reporters else 0
                if degree + twin_degree - 2 * adj - 2 * common <= d:
                    detected.add(twin_id)
        else:
            self.evaluated[t] = sketch_d_twin_test(own, counts, reporters, d) if counts else set()
            self.decided += len(counts)

    @property
    def twins_at(self) -> list[set[int] | frozenset[int]]:
        """The verdicts indexed by time, for readers outside the package: a
        p-slot list built on each read, empty where no round was evaluated."""
        return [self.evaluated.get(t, frozenset()) for t in range(self.p)]

    def verdicts(self):
        """Every recorded twin verdict as (peer, t), read from ``evaluated``."""
        return ((peer, t) for t, twins in self.evaluated.items() for peer in twins)

    def finalize(self) -> set[TwinWindow]:
        """Canonical window set after all 2p rounds, read from ``verdicts`` by ``twin_windows``.

        The verdicts for t are final at round p+t, so a window (peer, s) inside
        the period could be read at round p+s+delta-1; one that straddles the
        period boundary needs the verdicts of both ends of the period.
        """
        if not self.neighbour_reports:
            raise ProtocolError("finalize needs a run: no phase-1 report was heard")
        missing = [t for t in self.neighbour_reports if t not in self.evaluated]
        if missing:
            raise ProtocolError(f"finalize needs every round with an edge evaluated, not {missing}")
        return twin_windows(self.verdicts(), self.p, self.delta)
