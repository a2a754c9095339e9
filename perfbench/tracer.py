"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions and methods of the tvtwins
modules with timing wrappers and ``uninstall`` puts the originals back; the
program's source is never edited.  A name imported into another module (for
example ``build_sketch`` into ``protocol`` and ``simulator``) is wrapped where
its caller looks it up.

Every timed call adds to ``stats[name] = [calls, total_s, self_s]``, where self
time is the call's duration minus that of the timed calls nested in it.
Coarse calls also record a span ``(name, start, end, parent)`` in memory, and
some wrappers bump counters in ``counts``.
"""

import time
from collections import Counter


class Tracer:
    def __init__(self, modules):
        self.graph, self.simulator, self.protocol, self.sketch, self.oracle, self.cli = modules
        self.spans: list[tuple[str, float, float, int]] = []
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # per open call: [nested time, span index or -1]
        self._oracle_depth = 0
        self._saved = []

    def reset(self) -> None:
        """Forget everything recorded; the wrappers keep these same containers."""
        self.spans.clear()
        self.stats.clear()
        self.counts.clear()

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, span=False, before=None, after=None):
        """Wrap ``fn``.  ``name`` is a string or a function of the call's
        arguments; ``before(args)`` and ``after(args, result)`` bump counters."""
        stack, stats, spans, clock = self._stack, self.stats, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if before is not None:
                before(args)
            frame = [0.0, -1]
            if span:
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                frame[1] = len(spans)
                spans.append((label, 0.0, 0.0, parent))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                entry = stats.get(label)
                if entry is None:
                    entry = stats[label] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if span:
                    spans[frame[1]] = (label, start, end, spans[frame[1]][3])
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        g, sim, proto, sk, orc, cli = (
            self.graph, self.simulator, self.protocol, self.sketch, self.oracle, self.cli
        )
        counts = self.counts

        for attr in ("parse_tel", "generate_random", "serialize_tel"):
            self._patch(g, attr, self.timed(f"graph.{attr}", getattr(g, attr), span=True))
        init = g.TemporalGraph.__init__
        self._patch(g.TemporalGraph, "__init__", self.timed("graph.temporal_graph_init", init, span=True))

        self._patch(sim.Simulation, "__init__",
                    self.timed("simulator.init", sim.Simulation.__init__, span=True))

        def count_run(args, result):
            stats = result.stats
            counts["simulator.messages"] += stats.messages
            counts["simulator.deliveries"] += stats.deliveries
            counts["simulator.total_bits"] += stats.total_bits

        self._patch(sim.Simulation, "run",
                    self.timed("simulator.rounds", sim.Simulation.run, span=True, after=count_run))

        def step_name(args):
            s = args[0]
            return "simulator.phase2_step" if s.round >= s.graph.p else "simulator.phase1_step"

        self._patch(sim.Simulation, "step", self.timed(step_name, sim.Simulation.step))
        self._patch(sim, "compare_with_oracle",
                    self.timed("simulator.compare", sim.compare_with_oracle, span=True))

        node = proto.NodeState
        self._patch(node, "send_message", self.timed("protocol.send_message", node.send_message))

        def receive_name(args):
            state, _, round_no = args
            return "protocol.receive_phase2" if round_no >= state.p else "protocol.receive_phase1"

        def count_entries(args):
            state, msg, round_no = args
            if round_no >= state.p:
                counts["protocol.phase2_entries"] += len(msg.entries)

        self._patch(node, "receive", self.timed(receive_name, node.receive, before=count_entries))

        def count_candidates(args):
            counts["protocol.candidates"] += len(args[0].common_count)

        def count_decisions(args, _):
            state, round_no, _ = args
            counts["protocol.twin_decisions"] += len(state.twins_at[round_no - state.p])

        self._patch(node, "end_of_round", self.timed(
            "protocol.end_of_round", node.end_of_round,
            before=count_candidates, after=count_decisions))
        self._patch(node, "finalize", self.timed("protocol.finalize", node.finalize))

        for owner in (proto, sim):
            self._patch(owner, "build_sketch", self.timed("sketch.build_sketch", owner.build_sketch))
            self._patch(owner, "sketch_d_twin_test",
                        self.timed("sketch.twin_test", owner.sketch_d_twin_test))

        def count_full(args):
            a, b = args
            if a.full or b.full:
                counts["sketch.estimate_union_full_calls"] += 1

        self._patch(sk, "estimate_union",
                    self.timed("sketch.estimate_union", sk.estimate_union, before=count_full))

        timed_all_windows = self.timed("oracle.all_windows", orc.all_windows, span=True)

        def traced_all_windows(*args, **kwargs):
            self._oracle_depth += 1
            try:
                return timed_all_windows(*args, **kwargs)
            finally:
                self._oracle_depth -= 1

        self._patch(orc, "all_windows", traced_all_windows)

        is_d_twin, pair_profile = orc.is_d_twin, orc.pair_profile

        def counted_is_d_twin(*args, **kwargs):
            counts["oracle.is_d_twin_calls"] += 1
            return is_d_twin(*args, **kwargs)

        def counted_pair_profile(*args, **kwargs):
            profile = pair_profile(*args, **kwargs)
            # The sketch audit calls pair_profile too; count the oracle's only.
            if self._oracle_depth and profile.common_count >= 1:
                counts["oracle.candidate_pairs"] += 1
            return profile

        self._patch(orc, "is_d_twin", counted_is_d_twin)
        self._patch(orc, "pair_profile", counted_pair_profile)

        def count_bytes(args, text):
            counts["cli.document_bytes"] += len(text.encode())

        self._patch(cli, "build_result_document",
                    self.timed("cli.document", cli.build_result_document))
        self._patch(cli, "document_json",
                    self.timed("cli.document", cli.document_json, after=count_bytes))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics --------------------------------------------------

    def audit_self_s(self) -> float:
        """compare_with_oracle minus its run and oracle children."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and name in ("simulator.init", "simulator.rounds", "oracle.all_windows"):
                children[parent] += end - start
        return sum(
            end - start - children[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name == "simulator.compare"
        )

    def layer_metrics(self) -> dict[str, float]:
        """Metrics of everything traced since the last reset."""

        def stat(name, field):  # field 0: calls, 1: total seconds, 2: self seconds
            return self.stats.get(name, (0, 0.0, 0.0))[field]

        c = self.counts
        return {
            "graph.parse_tel_s": stat("graph.parse_tel", 1),
            "graph.temporal_graph_init_s": stat("graph.temporal_graph_init", 1),
            "graph.generate_random_s": stat("graph.generate_random", 1),
            "graph.serialize_tel_s": stat("graph.serialize_tel", 1),
            "simulator.init_s": stat("simulator.init", 1),
            "simulator.phase1_step_self_s": stat("simulator.phase1_step", 2),
            "simulator.phase2_step_self_s": stat("simulator.phase2_step", 2),
            "simulator.audit_self_s": self.audit_self_s(),
            "simulator.messages": c["simulator.messages"],
            "simulator.deliveries": c["simulator.deliveries"],
            "simulator.total_bits": c["simulator.total_bits"],
            "protocol.send_message_s": stat("protocol.send_message", 1),
            "protocol.receive_phase1_s": stat("protocol.receive_phase1", 1),
            "protocol.receive_phase2_s": stat("protocol.receive_phase2", 1),
            "protocol.phase2_entries": c["protocol.phase2_entries"],
            "protocol.end_of_round_s": stat("protocol.end_of_round", 1),
            "protocol.candidates": c["protocol.candidates"],
            "protocol.twin_decisions": c["protocol.twin_decisions"],
            "protocol.finalize_s": stat("protocol.finalize", 1),
            "sketch.build_sketch_s": stat("sketch.build_sketch", 1),
            "sketch.build_sketch_calls": stat("sketch.build_sketch", 0),
            "sketch.estimate_union_s": stat("sketch.estimate_union", 1),
            "sketch.estimate_union_calls": stat("sketch.estimate_union", 0),
            "sketch.estimate_union_full_calls": c["sketch.estimate_union_full_calls"],
            "sketch.twin_test_self_s": stat("sketch.twin_test", 2),
            "oracle.all_windows_s": stat("oracle.all_windows", 1),
            "oracle.is_d_twin_calls": c["oracle.is_d_twin_calls"],
            "oracle.candidate_pairs": c["oracle.candidate_pairs"],
            "cli.document_s": stat("cli.document", 1),
            "cli.document_bytes": c["cli.document_bytes"],
        }
