import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvtwins import protocol
from tvtwins import (
    ProblemParams,
    RunConfig,
    Simulation,
    SketchParams,
    TemporalGraph,
    TwinWindow,
    all_windows,
    compare_with_oracle,
    generate_random,
    run,
)
from tvtwins.oracle import pair_profile
from tvtwins.protocol import Message, NodeState, ProtocolError, message_bits
from tvtwins.sketch import build_sketch

from .conftest import adjacent_twins_graph, counting_estimator, run_with_snapshots, temporal_graphs


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


def test_receive_phase2_keeps_self_entry_until_end_of_round():
    # The node's own echoed entry is counted like any other; end_of_round
    # takes it out, so the node is never its own twin.
    state = NodeState(1, p=1, delta=1, d=1)
    for sender in (2, 3, 4):
        state.receive(Message(((sender, 2),)), 0)
    state.receive(Message(((5, 2), (1, 3))), 1)
    assert state.common_count == {(5, 2): 1, (1, 3): 1}
    state.end_of_round(1, 3)
    assert state.twins_at[0] == set() and state.common_count == {}


def test_receive_phase2_counts_forwarders():
    state = NodeState(1, p=1, delta=1, d=0)
    for sender in (2, 3):
        state.receive(Message(((sender, 2),)), 0)
    state.receive(Message(((5, 2),)), 1)
    state.receive(Message(((5, 2),)), 1)
    assert state.common_count == {(5, 2): 2}


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
    assert state.common_count == {3: peer, 1: own}
    with counting_estimator() as calls:
        state.end_of_round(1, 1)
    assert state.twins_at[0] == {3}
    assert state.common_count == {}
    assert len(calls) == 1 and calls[0][0] is own and calls[0][1] is peer

    state = NodeState(1, p=1, delta=1, d=0, sketch_params=sp)
    state.receive(Message(((2, 2),)), 0)
    state.receive(Message(((3, 1),), {3: peer}), 1)
    with pytest.raises(ProtocolError, match="echoed"):
        state.end_of_round(1, 1)


@pytest.mark.parametrize(
    "forwarded",
    [((3, 1),), ((3, 1), (1, 2))],
    ids=["no-own-entry", "own-entry-other-degree"],
)
def test_exact_end_of_round_requires_echoed_own_entry(forwarded):
    # Node 1 on the 3-path 1-2-3 at d = 1: the candidate 3 arrives, but the
    # echo of node 1's own entry is missing or names a degree other than the
    # injected one, so the node cannot tell its own entry from a candidate.
    state = NodeState(1, p=1, delta=1, d=1)
    state.receive(Message(((2, 2),)), 0)
    state.receive(Message(forwarded), 1)
    with pytest.raises(ProtocolError, match="echoed"):
        state.end_of_round(1, 1)


@pytest.mark.parametrize(
    "own_ids, peer_ids, tested, twin",
    [
        # Not adjacent, size gap exactly d: both filters pass, estimated, a twin.
        ({2}, {2, 3, 4}, [(0, 1)], True),
        # Not adjacent, size gap d + 1: the size filter rejects, with no estimate.
        ({2}, {2, 3, 4, 5}, [], False),
        # Adjacent (1 reports to 0), size gap d + 2: the outside sets keep the
        # gap, so the size filter rejects, with no estimate.
        ({1, 2}, {0, 2, 3, 4, 5, 6}, [], False),
        # Adjacent, symmetric difference {0, 1, 4, 5} with 4 bits set: 4 - 2
        # is d, so both filters pass, estimated, and a twin.
        ({1, 2, 3, 4}, {0, 2, 3, 5}, [(0, 1)], True),
        # Adjacent, size gap d + 1: the size filter rejects, with no estimate,
        # though the symmetric difference's 5 values set only 4 bits (3 and
        # 14 share one) and 4 - 2 is d, so the bitmap filter alone would
        # pass it.
        ({1, 2}, {0, 2, 3, 4, 14}, [], False),
    ],
)
def test_sketch_size_filter_boundary(own_ids, peer_ids, tested, twin):
    # Node 0 hears candidate 1 from forwarder 2 at d = 2; ``tested`` lists
    # the (node, candidate) pairs whose sketches reach the estimator, which
    # the pair does unless the size gap exceeds d, or the popcount of the two
    # lossless sketches' bitmap XOR less 2*adj does.
    sp = SketchParams(k=8, epsilon=0.2, nu=0.1)
    state = NodeState(0, p=1, delta=1, d=2, sketch_params=sp)
    for sender in sorted(own_ids):
        state.receive(Message(((sender, 1),)), 0)
    sketches = {1: build_sketch(peer_ids, sp), 0: build_sketch(own_ids, sp)}
    state.receive(Message(((1, len(peer_ids)), (0, len(own_ids))), sketches), 1)
    with counting_estimator() as calls:
        state.end_of_round(1, len(own_ids))
    assert calls == [(sketches[u], sketches[v]) for u, v in tested]
    assert (state.twins_at[0] == {1}) is twin


@pytest.mark.parametrize(
    "reporters, peer_degree, forwarders, counted, twin",
    [
        # Node 0 has degree 4 at d = 2, so the band is [2, 6].  At its lower
        # edge: difference 4 + 2 - 2*2 = 2, a twin.
        ((2, 3, 4, 5), 2, (2, 3), True, True),
        # One below: 4 + 1 - 2*1 = 3, no twin, and not counted.
        ((2, 3, 4, 5), 1, (2,), False, False),
        # Upper edge: 4 + 6 - 2*4 = 2, a twin.
        ((2, 3, 4, 5), 6, (2, 3, 4, 5), True, True),
        # One above: 4 + 7 - 2*4 = 3.
        ((2, 3, 4, 5), 7, (2, 3, 4, 5), False, False),
        # Adjacent (1 reports to 0) at the upper edge: (4-1) + (6-1) - 2*3 = 2.
        ((1, 2, 3, 4), 6, (2, 3, 4), True, True),
        # Adjacent, one above: (4-1) + (7-1) - 2*3 = 3.
        ((1, 2, 3, 4), 7, (2, 3, 4), False, False),
    ],
    ids=["lower-edge", "below", "upper-edge", "above", "adjacent-edge", "adjacent-above"],
)
def test_exact_degree_band_boundary(reporters, peer_degree, forwarders, counted, twin):
    # Node 0 hears candidate 1 from each forwarder; it counts the entry only
    # when 1's degree lies within d of its own, and either way decides as the
    # difference does, since the gap alone already exceeds d outside the band.
    state = NodeState(0, p=1, delta=1, d=2)
    for sender in reporters:
        state.receive(Message(((sender, peer_degree if sender == 1 else 2),)), 0)
    forwarded = Message(((0, len(reporters)), (1, peer_degree)))
    for _ in forwarders:
        state.receive(forwarded, 1)
    own = {(0, len(reporters)): len(forwarders)}
    peer = {(1, peer_degree): len(forwarders)} if counted else {}
    assert state.common_count == {**own, **peer}
    state.end_of_round(1, len(reporters))
    assert (state.twins_at[0] == {1}) is twin


def test_sketch_candidates_equal_exact_candidates(monkeypatch):
    # common_count holds the round's candidates in both modes, with full and
    # under-full sketches alike, and the node's own echoed entry; the exact
    # route keeps only those whose degree lies within d of the node's own
    # (the sketch route's size filter runs inside sketch_d_twin_test), each
    # under its reported degree, which is the true one.
    g = generate_random(30, 4, 0.3, seed=2)
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1)
    fullness = {build_sketch(g.neighbours(v, t), sp).full for t in range(g.p) for v in g.active_nodes(t)}
    assert fullness == {False, True}
    seen = {"exact": {}, "sketch": {}}
    evaluate = NodeState.end_of_round

    def record(state, round_no, degree):
        if state.sketch_params is None:
            t = round_no - g.p
            assert all(x_degree == g.degree(x, t) for x, x_degree in state.common_count)
            seen["exact"][state.node_id, round_no] = {x for x, _ in state.common_count}
        else:
            seen["sketch"][state.node_id, round_no] = set(state.common_count)
        evaluate(state, round_no, degree)

    monkeypatch.setattr(NodeState, "end_of_round", record)
    run(g, RunConfig(params=ProblemParams(2, 1)))
    run(g, RunConfig(params=ProblemParams(2, 1), mode="sketch", sketch_params=sp))
    in_band = {
        (v, r): {x for x in named if abs(g.degree(x, r - g.p) - g.degree(v, r - g.p)) <= 1}
        for (v, r), named in seen["sketch"].items()
    }
    assert seen["exact"] == in_band
    assert all(v in named for (v, _), named in seen["sketch"].items())
    exact, sketch = (sum(map(len, seen[mode].values())) for mode in ("exact", "sketch"))
    assert 1000 < exact < sketch


def test_sketch_run_decides_each_node_round_in_one_twin_test_call(monkeypatch):
    # perfbench's tracer times the sketch decision under this one name, so a
    # run must call it exactly once for each node-round with candidates,
    # with all of them, never for one without, and record what it returns.
    g = generate_random(30, 4, 0.3, seed=2)
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1)
    calls, named_rounds = [], []
    twin_test = protocol.sketch_d_twin_test
    evaluate = NodeState.end_of_round

    def counted(own, candidates, adjacent, d):
        calls.append((set(candidates), twin_test(own, candidates, adjacent, d)))
        return calls[-1][1]

    def check(state, round_no, degree):
        named = set(state.common_count) - {state.node_id}
        before = len(calls)
        evaluate(state, round_no, degree)
        assert len(calls) - before == (1 if named else 0)
        if named:
            named_rounds.append(named)
            assert calls[-1] == (named, state.twins_at[round_no - state.p])

    monkeypatch.setattr(protocol, "sketch_d_twin_test", counted)
    monkeypatch.setattr(NodeState, "end_of_round", check)
    result = run(g, RunConfig(ProblemParams(1, 1), "sketch", sp))
    assert len(calls) == len(named_rounds) > 50
    assert any(twins for _, twins in calls) and any(result.windows.values())


def test_run_broken_when_candidate_unnamed():
    # Peer 5 is a twin at t=0 and t=2 but unnamed at t=1, so no window lies
    # inside the period; only the wrapping window from t=2 exists.
    # Node 0's one neighbour is 2 (shared with 5) at t=0 and t=2, and 3 (a
    # leaf) at t=1.
    state = NodeState(0, p=3, delta=2, d=0)
    for t, sender in enumerate((2, 3, 2)):
        state.receive(Message(((sender, 1 if sender == 3 else 2),)), t)
    state.receive(Message(((0, 1), (5, 1))), 3)
    state.end_of_round(3, 1)
    state.receive(Message(((0, 1),)), 4)  # 3 names only node 0: no candidate
    state.end_of_round(4, 1)
    state.receive(Message(((0, 1), (5, 1))), 5)
    state.end_of_round(5, 1)
    assert state.twins_at == [{5}, set(), {5}]
    assert state.finalize() == {TwinWindow(5, 2)}


def test_finalize_requires_all_rounds():
    state = NodeState(0, p=2, delta=1, d=0)
    with pytest.raises(ProtocolError):
        state.finalize()


def test_finalize_names_each_round_with_an_edge_left_unevaluated():
    # Edges at t = 0 and 1, evaluated at t = 0 and at t = 2, where the node
    # has no edge: as many evaluations as rounds with an edge, yet t = 1 holds
    # no verdict.
    state = NodeState(0, p=3, delta=1, d=0)
    for t in (0, 1):
        state.receive(Message(((1, 1),)), t)
    state.receive(Message(((0, 1),)), 3)
    state.end_of_round(3, 1)
    state.end_of_round(5, 0)
    with pytest.raises(ProtocolError, match=r"not \[1\]$"):
        state.finalize()


@pytest.mark.parametrize("mode", ["exact", "sketch"])
def test_phase2_delivery_needs_a_phase1_report(mode):
    # A node hears phase-2 messages only from its neighbours at t, so it must
    # have heard their phase-1 reports, from which exact mode also reads its
    # degree band; in both modes it fails fast otherwise.
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1) if mode == "sketch" else None
    sketches = {1: build_sketch({2}, sp)} if sp else None
    state = NodeState(0, p=1, delta=1, d=0, sketch_params=sp)
    with pytest.raises(ProtocolError, match="without a phase-1 report"):
        state.receive(Message(((1, 1),), sketches), 1)


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


def test_run_never_builds_the_twins_at_view(monkeypatch):
    # twins_at is a p-slot view for readers that index by round; a run, its
    # finalize and a sketch compare's audit read only ``evaluated``.
    def refuse(state):
        raise AssertionError("the twins_at view was built")

    monkeypatch.setattr(NodeState, "twins_at", property(refuse))
    g = generate_random(12, 3, 0.4, seed=1)
    sp = SketchParams(k=2, epsilon=0.5, nu=0.3, hash_seed=1)
    assert any(run(g, RunConfig(ProblemParams(1, 2))).windows.values())
    report = compare_with_oracle(g, RunConfig(ProblemParams(1, 2), "sketch", sp))
    assert report.decisions > 0


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
    # exactly the nodes sharing a neighbour with the evaluating node whose
    # degree lies within d of its own, besides the node's own entry, named by
    # each of its neighbours.
    sim = Simulation(g, RunConfig(params=ProblemParams(min(2, g.p), d)))
    evaluated = set()
    evaluate = NodeState.end_of_round

    def check(state, round_no, degree):
        v, t = state.node_id, round_no - state.p
        common = {
            (u, g.degree(u, t)): pair_profile(g, v, u, t).common_count
            for u in g.nodes
            if u != v and abs(g.degree(u, t) - degree) <= d
        }
        common[v, degree] = degree
        assert state.common_count == {u: c for u, c in common.items() if c >= 1}
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
