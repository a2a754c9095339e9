import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvtwins import protocol
from tvtwins import (
    ProblemParams,
    RunConfig,
    Simulation,
    SketchParams,
    TwinWindow,
    all_windows,
    generate_random,
    run,
)
from tvtwins.oracle import pair_profile
from tvtwins.protocol import Message, NodeState, ProtocolError, message_bits
from tvtwins.sketch import build_sketch

from .conftest import adjacent_twins_graph, path_graph, run_with_snapshots, temporal_graphs


def test_send_phase1():
    state = NodeState(7, p=2, delta=1, d=0)
    assert state.send_message(0, 2) == Message(((7, 2),))


def test_send_phase2_forwards_verbatim():
    state = NodeState(1, p=2, delta=1, d=0)
    state.receive(Message(((7, 3),)), 0)
    state.receive(Message(((9, 1),)), 0)
    assert state.send_message(2, 2) == Message(((7, 3), (9, 1)))


def test_send_isolated_node_still_produces():
    state = NodeState(4, p=1, delta=1, d=0)
    assert state.send_message(0, 0) == Message(((4, 0),))


def test_send_after_termination():
    state = NodeState(0, p=2, delta=1, d=0)
    with pytest.raises(ProtocolError):
        state.send_message(4, 1)


def test_receive_phase1_appends():
    state = NodeState(0, p=4, delta=1, d=0)
    state.receive(Message(((4, 7),)), 3)
    assert state.neighbour_reports[3] == [(4, 7)]


def test_receive_phase2_skips_self_entry():
    state = NodeState(1, p=1, delta=1, d=0)
    state.receive(Message(((5, 2), (1, 3))), 1)
    assert state.common_count == {5: 1}
    assert state.reported_degree == {5: 2}


def test_receive_phase2_counts_forwarders():
    state = NodeState(1, p=1, delta=1, d=0)
    state.receive(Message(((5, 2),)), 1)
    state.receive(Message(((5, 2),)), 1)
    assert state.common_count == {5: 2}


def test_end_of_round_emits_window_on_p3():
    # Node 1 on the 3-path: the forwarded table names node 3 once.
    state = NodeState(1, p=1, delta=1, d=0)
    state.receive(Message(((2, 2),)), 0)
    state.receive(Message(((3, 1), (1, 1))), 1)
    state.end_of_round(1, 1)
    assert state.twins_at[0] == {3}
    assert state.finalize() == {TwinWindow(3, 0)}
    assert state.common_count == {}


def test_end_of_round_outside_phase2():
    state = NodeState(0, p=2, delta=1, d=0)
    with pytest.raises(ProtocolError):
        state.end_of_round(0, 1)


def test_sketch_end_of_round_reads_echoed_own_sketch():
    # Node 1 on the 3-path 1-2-3: forwarder 2 echoes node 1's entry with its
    # sketch, which node 1 compares with node 3's.  Without the echo it has a
    # candidate and nothing to compare it with, and fails fast.
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1)
    own, peer = build_sketch({2}, sp), build_sketch({2}, sp)
    state = NodeState(1, p=1, delta=1, d=0, sketch_params=sp)
    state.receive(Message(((2, 2),)), 0)
    state.receive(Message(((3, 1), (1, 1)), {3: peer, 1: own}), 1)
    assert state.own_sketch is own and state.common_count == {3: peer}
    state.end_of_round(1, 1)
    assert state.twins_at[0] == {3}
    assert state.own_sketch is None and state.common_count == {}

    state = NodeState(1, p=1, delta=1, d=0, sketch_params=sp)
    state.receive(Message(((2, 2),)), 0)
    state.receive(Message(((3, 1),), {3: peer}), 1)
    with pytest.raises(ProtocolError, match="echoed"):
        state.end_of_round(1, 1)


@pytest.mark.parametrize(
    "own_ids, peer_ids, tested, twin",
    [
        # Not adjacent, size gap exactly d: tested, and a twin.
        ({2}, {2, 3, 4}, [(0, 2)], True),
        # Adjacent (1 reports to 0), size gap d + 2: adjacency may lower the
        # difference by 2, so the pair is still tested.
        ({1, 2}, {0, 2, 3, 4, 5, 6}, [(1, 2)], False),
        # Not adjacent, size gap d + 1: the sizes decide, with no test.
        ({2}, {2, 3, 4, 5}, [], False),
    ],
)
def test_sketch_size_filter_boundary(monkeypatch, own_ids, peer_ids, tested, twin):
    # Node 0 hears candidate 1 from forwarder 2 at d = 2; the node rejects
    # the pair without calling the twin test only when the size gap less
    # 2*adj exceeds d.
    calls = []
    twin_test = protocol.sketch_d_twin_test
    monkeypatch.setattr(
        protocol, "sketch_d_twin_test", lambda *a: calls.append(a[2:]) or twin_test(*a)
    )
    sp = SketchParams(k=8, epsilon=0.2, nu=0.1)
    state = NodeState(0, p=1, delta=1, d=2, sketch_params=sp)
    for sender in sorted(own_ids):
        state.receive(Message(((sender, 1),)), 0)
    sketches = {1: build_sketch(peer_ids, sp), 0: build_sketch(own_ids, sp)}
    state.receive(Message(((1, len(peer_ids)), (0, len(own_ids))), sketches), 1)
    state.end_of_round(1, len(own_ids))
    assert calls == tested
    assert (state.twins_at[0] == {1}) is twin


def test_sketch_candidates_equal_exact_candidates(monkeypatch):
    # common_count holds exactly the round's candidates in both modes, with
    # full and under-full sketches alike (perfbench counts candidates by it).
    g = generate_random(30, 4, 0.3, seed=2)
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1)
    fullness = {build_sketch(g.neighbours(v, t), sp).full for t in range(g.p) for v in g.active_nodes(t)}
    assert fullness == {False, True}
    seen = {"exact": {}, "sketch": {}}
    evaluate = NodeState.end_of_round

    def record(state, round_no, degree):
        mode = "exact" if state.sketch_params is None else "sketch"
        seen[mode][state.node_id, round_no] = set(state.common_count)
        evaluate(state, round_no, degree)

    monkeypatch.setattr(NodeState, "end_of_round", record)
    run(g, RunConfig(params=ProblemParams(2, 1)))
    run(g, RunConfig(params=ProblemParams(2, 1), mode="sketch", sketch_params=sp))
    assert seen["sketch"] == seen["exact"]
    assert sum(map(len, seen["exact"].values())) > 1000


def test_run_broken_when_candidate_unnamed():
    # Peer 5 is a twin at t=0 and t=2 but unnamed at t=1, so no window lies
    # inside the period; only the wrapping window from t=2 exists.
    state = NodeState(0, p=3, delta=2, d=0)
    state.receive(Message(((5, 1),)), 3)
    state.end_of_round(3, 1)
    state.end_of_round(4, 1)  # nothing received: no common neighbour anywhere
    state.receive(Message(((5, 1),)), 5)
    state.end_of_round(5, 1)
    assert state.twins_at == [{5}, set(), {5}]
    assert state.finalize() == {TwinWindow(5, 2)}


def test_finalize_requires_all_rounds():
    state = NodeState(0, p=2, delta=1, d=0)
    with pytest.raises(ProtocolError):
        state.finalize()


def test_finalize_one_round_short_of_the_engine_raises(wrap_graph):
    # Stepped to round 2p - 1, the evaluation of t = p - 1 is still missing.
    # Node 0 has an edge then (and in earlier rounds), so its finalize raises;
    # node 3's only edge is at t = 2, so every round it acts in is evaluated.
    config = RunConfig(params=ProblemParams(1, 0))
    sim = Simulation(wrap_graph, config)
    while sim.round < 2 * wrap_graph.p - 1:
        sim.step()
    with pytest.raises(ProtocolError):
        sim.states[0].finalize()
    assert sim.states[3].finalize() == run(wrap_graph, config).windows[3]


def test_adjacent_twins_need_degree_correction():
    # Raw degrees would give 3 + 3 - 2*2 = 2; the corrected value is 0.
    g = adjacent_twins_graph()
    result = run(g, RunConfig(params=ProblemParams(1, 0)))
    assert TwinWindow(1, 0) in result.windows[0]
    assert TwinWindow(0, 0) in result.windows[1]


def test_finalize_recovers_wrapping_window(wrap_graph):
    params = ProblemParams(3, 0)
    sim = Simulation(wrap_graph, RunConfig(params=params))
    result = sim.run()
    # Peer 1 is no twin at t = 2, so its three consecutive verdicts exist only
    # across the period boundary.
    assert sim.states[0].twins_at == [{1}, {1}, {3}, {1}]
    assert result.windows[0] == {TwinWindow(1, 3)}


def test_message_bits():
    assert message_bits(Message(((0, 1),)), 5) == 10
    assert message_bits(Message(((1, 2), (3, 4), (5, 6))), 5) == 30
    # Sketch mode: each entry adds its sketch, a 16-bit count, 64 bits per
    # live value and a width-bit exact size.  Capacity 4: 2 and 4 live values.
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1)
    sketches = {1: build_sketch({1, 2}, sp), 3: build_sketch(range(9), sp)}
    msg = Message(((1, 2), (3, 9)), sketches)
    assert message_bits(msg, 5) == sum(2 * 5 + 16 + 64 * live + 5 for live in (2, 4))


@given(temporal_graphs(max_n=8), st.integers(min_value=0, max_value=2))
@settings(max_examples=50, deadline=None)
def test_evaluated_values_match_reference(g, d):
    # Each evaluation reads, per candidate, the common count and the reported
    # degree; both must be the reference's, and the candidates at time t
    # exactly the nodes sharing a neighbour with the evaluating node.
    sim = Simulation(g, RunConfig(params=ProblemParams(min(2, g.p), d)))
    evaluated = set()
    evaluate = NodeState.end_of_round

    def check(state, round_no, degree):
        v, t = state.node_id, round_no - state.p
        common = {u: pair_profile(g, v, u, t).common_count for u in g.nodes if u != v}
        assert state.common_count == {u: c for u, c in common.items() if c >= 1}
        assert state.reported_degree == {u: g.degree(u, t) for u in state.common_count}
        evaluated.add((v, t))
        evaluate(state, round_no, degree)

    NodeState.end_of_round = check
    try:
        sim.run()
    finally:
        NodeState.end_of_round = evaluate
    # Exactly the nodes with an edge at t are evaluated at t.
    assert evaluated == {(v, t) for t in range(g.p) for v in g.active_nodes(t)}


@given(temporal_graphs(max_n=8), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_protocol_equals_reference(g, d):
    for delta in {1, g.p}:
        params = ProblemParams(delta, d)
        sim = Simulation(g, RunConfig(params=params))
        # Each verdict slot is written once, at round p+t, so every window
        # inside the period is known by its last round.
        result, violations, _ = run_with_snapshots(sim)
        assert violations == []
        assert result.windows == all_windows(g, params)
        for v, state in sim.states.items():
            # Determinism rests on every receiver hearing its senders in
            # ascending order.
            for reports in state.neighbour_reports.values():
                senders = [sender for sender, _ in reports]
                assert senders == sorted(senders)
