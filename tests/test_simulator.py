import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvtwins import oracle, protocol, simulator, sketch
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
    parse_tel,
    run,
)
from tvtwins.cli import build_result_document, document_json
from tvtwins.graph import id_width, twin_windows
from tvtwins.sketch import build_sketch

from .conftest import (
    all_pairs_windows,
    path_graph,
    run_with_snapshots,
    sketch_twin,
    structured_graphs,
    temporal_graphs,
)


def test_round_count_is_twice_the_period(wrap_graph):
    result = run(wrap_graph, RunConfig(params=ProblemParams(3, 0)))
    assert result.rounds_executed == 8
    result = run(path_graph(3), RunConfig(params=ProblemParams(1, 0)))
    assert result.rounds_executed == 2


def test_edgeless_graph_sends_nothing():
    g = TemporalGraph(p=3, nodes={0, 1, 2})
    result = run(g, RunConfig(params=ProblemParams(2, 1)))
    assert result.rounds_executed == 6
    assert all(not w for w in result.windows.values())
    assert result.stats.messages == 0
    assert result.stats.deliveries == 0
    assert result.stats.max_phase2_bits == 0 == result.stats.phase2_bound_bits
    assert result.stats.per_round == [
        simulator.RoundRecord(r, r % 3, 1 + (r >= 3), 0, 0, 0, 0) for r in range(6)
    ]


def test_phase2_message_sizes(wrap_graph):
    result = run(wrap_graph, RunConfig(params=ProblemParams(3, 0)))
    width = id_width(wrap_graph.n)
    assert width == 2
    # Degree-3 forwarder (node 2 at time 2) sends 3 entries of 2 width-bit fields.
    assert result.stats.max_phase2_bits == 3 * 2 * width
    assert result.stats.max_phase2_bits == result.stats.phase2_bound_bits
    for record in result.stats.per_round:
        assert record.max_bits <= result.stats.phase2_bound_bits
        if record.phase == 1:
            assert record.max_bits == 2 * width


def test_complete_bipartite_round_meets_the_phase2_bound():
    # K_{8,12} on sides 0..7 and 8..19 at round 0 only: every same-side pair
    # shares the whole other side, so it is a 0-twin, and the two have
    # neighbourhoods of equal size, the sketch size filter's edge.  An a-side
    # node forwards its 12 entries, so phase 2 meets its bound with equality.
    # The case shows the limit of short messages: an a-side node hears
    # 2b = 24 messages in the 2p rounds but must name a - 1 = 7 twins, so a
    # route of O(log n)-bit messages fails on K_{a,b} once a - 1 outgrows 2b.
    a_side, b_side = range(8), range(8, 20)
    g = TemporalGraph(p=3, nodes=range(20), edges_at={0: {(u, w) for u in a_side for w in b_side}})
    params = ProblemParams(1, 0)
    result = run(g, RunConfig(params))
    assert result.stats.max_phase2_bits == result.stats.phase2_bound_bits == 120
    assert (result.stats.deliveries, result.stats.messages) == (384, 40)
    # W = 5 bits per ID or degree.  Round 0: 20 entries of 2W = 10 bits, 200
    # bits.  Round 3: each a-side node forwards 12 entries (120 bits), each
    # b-side node 8 (80 bits): 200 + 8*120 + 12*80 = 2120.
    assert result.stats.total_bits == 2120
    for side in (a_side, b_side):
        for v in side:
            assert result.windows[v] == {TwinWindow(w, 0) for w in side if w != v}
    assert result.windows == all_windows(g, params)
    sp = SketchParams(k=13, epsilon=0.2, nu=0.1, hash_seed=1)
    assert run(g, RunConfig(params, "sketch", sp)).windows == result.windows
    # At k = 10 each entry adds its sketch, 16 + W + 64*min(deg, k) bits: an
    # a-side message is 12 * (10 + 16 + 5 + 64*8) = 6516 bits, a b-side one
    # 8 * (10 + 16 + 5 + 64*10) = 5368: 200 + 8*6516 + 12*5368 = 116744.
    sp = SketchParams(k=10, epsilon=0.2, nu=0.1, hash_seed=0)
    stats = run(g, RunConfig(params, "sketch", sp)).stats
    assert (stats.max_phase2_bits, stats.total_bits) == (6516, 116744)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(params=ProblemParams(1, 0), mode="bogus")
    with pytest.raises(ValueError):
        RunConfig(params=ProblemParams(1, 0), mode="sketch")


def test_deterministic_documents():
    g = generate_random(15, 5, 0.3, seed=11)
    params = ProblemParams(2, 1)

    def doc(mode):
        sp = SketchParams(k=16, epsilon=0.2, nu=0.1, hash_seed=3) if mode == "sketch" else None
        config = RunConfig(params=params, mode=mode, sketch_params=sp, seed=3)
        result = run(g, config)
        return document_json(
            build_result_document(g, params, mode, 3, result.windows, result.stats.as_dict(), sp)
        )

    for mode in ("exact", "sketch"):
        assert doc(mode) == doc(mode)


def test_compare_exact_mode_empty_diff():
    g = generate_random(18, 4, 0.3, seed=5)
    report = compare_with_oracle(g, RunConfig(params=ProblemParams(2, 1)))
    assert report.equal
    assert report.differences == {}
    assert report.decisions == 0  # decision audit is sketch-mode only


def test_sketch_lossless_regime_matches_exact():
    g = generate_random(12, 3, 0.5, seed=9)
    params = ProblemParams(2, 1)
    sp = SketchParams(k=64, epsilon=0.2, nu=0.1, hash_seed=1)  # k > max degree
    report = compare_with_oracle(g, RunConfig(params=params, mode="sketch", sketch_params=sp))
    assert report.equal
    assert report.decisions > 0
    assert report.mismatched_decisions == 0


def test_sketch_compare_builds_each_engine_sketch_once(monkeypatch):
    # The audit reuses the run's verdicts: the engine sketches each round's
    # neighbour table once, one sketch per node with an edge in that round,
    # and so hashes each ID at most once per round.  Node 12 has no edge in
    # any round.  A node builds no sketch: it reads its own from the entry its
    # neighbours echo.
    rounds, hashed, own = [], [], []
    build, mix = simulator.build_sketches, sketch._mix64

    def counted_build(table, sp):
        hashed.clear()
        sketches = build(table, sp)
        rounds.append((set(sketches), set().union(*table.values()), list(hashed)))
        return sketches

    monkeypatch.setattr(simulator, "build_sketches", counted_build)
    monkeypatch.setattr(sketch, "_mix64", lambda x: hashed.append(x) or mix(x))
    monkeypatch.setattr(protocol, "build_sketch", lambda *a: own.append(a))
    base = generate_random(12, 3, 0.5, seed=9)
    g = TemporalGraph(base.p, base.nodes | {12}, {t: base.edges(t) for t in range(base.p)})
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1, hash_seed=1)
    report = compare_with_oracle(g, RunConfig(ProblemParams(2, 1), "sketch", sp))
    assert report.decisions > 0
    assert len(rounds) == g.p
    seed_word = mix(sp.hash_seed)
    for t, (sketched, ids, words) in enumerate(rounds):
        with_edge = {v for v in g.nodes if g.degree(v, t)}
        assert sketched == with_edge
        # The IDs to hash are the nodes with an edge (only such a node is
        # anyone's neighbour).  build_sketches calls _mix64 once for the hash
        # seed, then once for each distinct ID, as i ^ _mix64(seed).
        assert ids == with_edge
        assert words[0] == sp.hash_seed
        assert sorted(words[1:]) == sorted(i ^ seed_word for i in with_edge)
    assert own == []


def test_sketch_run_builds_no_table_for_an_edgeless_round(monkeypatch):
    # Only round 1 of 4 has an edge, so only phase-2 round p + 1 has anyone
    # to grant a sketch to.
    tables = []
    build = simulator.build_sketches
    monkeypatch.setattr(
        simulator, "build_sketches", lambda table, sp: tables.append(set(table)) or build(table, sp)
    )
    g = TemporalGraph(p=4, nodes=range(3), edges_at={1: {(0, 1), (1, 2)}})
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1, hash_seed=1)
    report = compare_with_oracle(g, RunConfig(ProblemParams(1, 0), "sketch", sp))
    assert report.equal and report.decisions == 1
    assert tables == [{0, 1, 2}]


@pytest.mark.parametrize("mode", ["exact", "sketch"])
def test_nodes_without_an_edge_send_nothing(monkeypatch, mode):
    # Nodes 12 and 13 have no edge in any round: a message from them would
    # reach nobody, so none is produced.
    sent = []
    send = protocol.NodeState.send_message
    monkeypatch.setattr(
        protocol.NodeState,
        "send_message",
        lambda self, *a: sent.append(self.node_id) or send(self, *a),
    )
    base = generate_random(12, 3, 0.3, seed=4)
    g = TemporalGraph(base.p, base.nodes | {12, 13}, {t: base.edges(t) for t in range(base.p)})
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1, hash_seed=1) if mode == "sketch" else None
    result = run(g, RunConfig(ProblemParams(2, 1), mode, sp))
    with_edge = sum(1 for t in range(g.p) for v in g.nodes if g.degree(v, t))
    assert len(sent) == result.stats.messages == 2 * with_edge
    assert 12 not in sent and 13 not in sent


def test_phase2_messages_carry_each_entry_granted_sketch(monkeypatch):
    # Sketch mode: every delivered phase-2 message carries exactly one sketch
    # per entry, the named node's neighbourhood at the matching time, with
    # full and under-full sketches alike.  Phase-1 and exact-mode messages
    # carry none.
    g = generate_random(30, 4, 0.3, seed=2)
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1)
    fullness = {
        build_sketch(g.neighbours(v, t), sp).full for t in range(g.p) for v in g.active_nodes(t)
    }
    assert fullness == {False, True}
    delivered = []
    receive = protocol.NodeState.receive

    def record(state, msg, round_no):
        delivered.append((state.sketch_params is not None, round_no, msg))
        receive(state, msg, round_no)

    monkeypatch.setattr(protocol.NodeState, "receive", record)
    run(g, RunConfig(ProblemParams(2, 1)))
    run(g, RunConfig(ProblemParams(2, 1), "sketch", sp))
    granted = 0
    for sketched, round_no, msg in delivered:
        if not sketched or round_no < g.p:
            assert msg.sketches is None
            continue
        assert set(msg.sketches) == {i for i, _ in msg.entries}
        for i, sketch_i in msg.sketches.items():
            assert sketch_i == build_sketch(g.neighbours(i, round_no - g.p), sp)
            granted += 1
    assert granted > 1000


def test_run_memory_follows_edges_not_period():
    # One edge among n=5000 nodes: only its two endpoints get a node state.  A
    # perfect matching at t=0 among n=2000: every node gets a state but acts
    # only in rounds 0 and p.  Either way p=64 costs about what p=1 does, in
    # both modes, and so does p=4096 for the matching, whose node states keep
    # a record per round with an edge, not per round of the period.  (The
    # single edge is held at p=64: at p=4096 the engine's per-round records
    # outweigh its two node states.)
    matching = "".join(f"0 {v} {v + 1}\n" for v in range(0, 2000, 2))
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1, hash_seed=1)
    configs = (RunConfig(ProblemParams(1, 0)), RunConfig(ProblemParams(1, 0), "sketch", sp))

    def peak(p, n, edges, config):
        graph = parse_tel(f"p={p} n={n}\n{edges}")
        tracemalloc.start()
        try:
            run(graph, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for p, n, edges in ((64, 5000, "0 0 1\n"), (64, 2000, matching), (4096, 2000, matching)):
        for config in configs:
            assert peak(p, n, edges, config) < 2 * peak(1, n, edges, config), (p, n, config.mode)

    # 1500 random edges in each of p=8 rounds among n=600: a sketch run holds
    # only the sketch table of the round that grants it, so it peaks near the
    # exact run, at 1.33x; a run that kept every round's table read 2.12x.
    rng = random.Random(1)
    pairs = list(combinations(range(600), 2))
    busy = "".join(f"{t} {u} {v}\n" for t in range(8) for u, v in sorted(rng.sample(pairs, 1500)))
    exact, sketched = (peak(8, 600, busy, config) for config in configs)
    assert sketched < 1.6 * exact, sketched / exact


@given(
    temporal_graphs(max_n=8),
    st.integers(min_value=0, max_value=2),
    st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_isolated_nodes_change_no_window(g, d, offsets):
    # Metamorphic: a node without an edge is nobody's neighbour, so adding
    # some leaves every other node's windows as they were and has none itself.
    added = {max(g.nodes) + 1 + x for x in offsets}
    bigger = TemporalGraph(g.p, g.nodes | added, {t: g.edges(t) for t in range(g.p)})
    params = ProblemParams(min(2, g.p), d)
    none = {v: set() for v in added}
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1, hash_seed=1)  # small k: some sketches are full
    for config in (RunConfig(params), RunConfig(params, "sketch", sp)):
        assert run(bigger, config).windows == {**run(g, config).windows, **none}
    assert all_windows(bigger, params) == {**all_windows(g, params), **none}


def _routes(g, params, k):
    """Windows of all_windows and of the exact and sketch runs (capacity k).
    Each run's verdicts must form a write-once record (``run_with_snapshots``)."""
    sp = SketchParams(k=k, epsilon=0.2, nu=0.1, hash_seed=1)
    windows = [all_windows(g, params)]
    for config in (RunConfig(params), RunConfig(params, "sketch", sp)):
        result, violations, _ = run_with_snapshots(Simulation(g, config))
        assert violations == []
        windows.append(result.windows)
    return windows


@given(temporal_graphs(max_n=8), st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=40, deadline=None)
def test_rotating_rounds_shifts_every_window_start(g, d, data):
    # Metamorphic: round t of the rotated graph is round t - s of g, so every
    # window starts s rounds later, mod p.  A sketch depends on its
    # neighbour set only, so this holds at k = 4 too, full sketches included.
    s = data.draw(st.integers(min_value=1, max_value=2 * g.p))
    params = ProblemParams(data.draw(st.integers(min_value=1, max_value=g.p)), d)
    rotated = TemporalGraph(g.p, g.nodes, {t: g.edges(t - s) for t in range(g.p)}, n=g.n)
    for before, after in zip(_routes(g, params, 4), _routes(rotated, params, 4)):
        assert after == {
            v: {TwinWindow(w.peer, (w.start + s) % g.p) for w in windows}
            for v, windows in before.items()
        }


@given(temporal_graphs(max_n=8), st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=40, deadline=None)
def test_relabelling_nodes_permutes_every_window(g, d, data):
    # Metamorphic: renaming node v to perm[v] renames every window's owner and
    # peer alike.  A full sketch keeps the lowest hashes of the IDs, which a
    # renaming changes, so the sketch run is taken at a capacity above every
    # degree (at least 4), where its decisions are exact.
    nodes = sorted(g.nodes)
    perm = dict(zip(nodes, data.draw(st.permutations(nodes))))
    renamed = TemporalGraph(
        g.p, nodes, {t: {(perm[u], perm[v]) for u, v in g.edges(t)} for t in range(g.p)}, n=g.n
    )
    params = ProblemParams(min(2, g.p), d)
    k = max(4, g.max_degree() + 1)
    for before, after in zip(_routes(g, params, k), _routes(renamed, params, k)):
        assert after == {
            perm[v]: {TwinWindow(perm[w.peer], w.start) for w in windows}
            for v, windows in before.items()
        }


@given(temporal_graphs(max_n=8), st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=40, deadline=None)
def test_reversing_rounds_reverses_every_window(g, d, data):
    # Metamorphic: round t of the reversed graph is round p - 1 - t of g, so
    # the window covering t0 .. t0 + delta - 1 of g starts at p - t0 - delta,
    # mod p.  The sketch run is taken at a capacity above every degree.
    params = ProblemParams(data.draw(st.integers(min_value=1, max_value=g.p)), d)
    reversed_g = TemporalGraph(g.p, g.nodes, {t: g.edges(g.p - 1 - t) for t in range(g.p)}, n=g.n)
    k = max(2, g.max_degree() + 1)
    for before, after in zip(_routes(g, params, k), _routes(reversed_g, params, k)):
        assert after == {
            v: {TwinWindow(w.peer, (g.p - w.start - params.delta) % g.p) for w in windows}
            for v, windows in before.items()
        }


@given(structured_graphs())
@settings(max_examples=60, deadline=None)
def test_routes_equal_the_definition_on_structured_graphs(case):
    # Stars, cliques, K_{a,b} and planted pairs: many pairs are twins or have
    # neighbourhoods of equal size, where the size filter's edge lies.  The
    # sketch run is taken at a capacity above every degree.
    g, d = case
    k = max(2, g.max_degree() + 1)
    for delta in {1, g.p, g.p + 1}:
        params = ProblemParams(delta, d)
        expected = all_pairs_windows(g, params)
        assert _routes(g, params, k) == [expected] * 3


def test_sketch_audit_decides_one_wedge_once(monkeypatch):
    profiles, decided = [], []
    profile, decide = oracle.pair_profile, oracle.is_d_twin
    monkeypatch.setattr(oracle, "pair_profile", lambda *a: profiles.append(a) or profile(*a))
    monkeypatch.setattr(oracle, "is_d_twin", lambda *a: decided.append(a) or decide(*a))
    g = TemporalGraph(p=4, nodes=range(2000), edges_at={0: {(0, 1), (1, 2)}})
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1, hash_seed=1)
    report = compare_with_oracle(g, RunConfig(ProblemParams(1, 0), "sketch", sp))
    assert report.equal
    assert report.decisions == 1
    assert report.mismatched_decisions == 0
    # The oracle decides the pair (0, 2) once; the audit reads that verdict
    # and profiles no pair, since the sketch agrees.
    assert len(decided) == 1
    assert len(profiles) == 1


def test_sketch_full_regime_mismatches_stay_near_thresholds():
    # Tiny capacity forces the estimator; flipped decisions must sit within
    # the error band around the twin thresholds.
    g = generate_random(30, 2, 0.5, seed=21)
    sp = SketchParams(k=4, epsilon=0.9, nu=0.5, hash_seed=13)
    report = compare_with_oracle(
        g, RunConfig(params=ProblemParams(1, 3), mode="sketch", sketch_params=sp)
    )
    assert report.decisions > 0
    assert report.mismatched_decisions > 0
    assert report.boundary_decisions == report.mismatched_decisions


@pytest.mark.parametrize(
    "n, p, prob, seed, d",
    # The last instance also has two twins that the sketch misses.
    [(30, 2, 0.5, 21, 3), (30, 4, 0.5, 2, 3), (40, 3, 0.3, 7, 1), (20, 2, 0.5, 11, 3)],
)
def test_sketch_audit_equals_a_replay_of_every_decision(n, p, prob, seed, d):
    # The audit reads the run's verdicts and profiles only mismatched pairs,
    # and takes its decision count from the run's phase-2 tables; replaying
    # every pair with a common neighbour, found by asking every node pair,
    # from freshly built sketches and a profile of each must give the same counts.
    g = generate_random(n, p, prob, seed=seed)
    sp = SketchParams(k=4, epsilon=0.9, nu=0.5, hash_seed=seed)
    report = compare_with_oracle(g, RunConfig(ProblemParams(1, d), "sketch", sp))
    decisions = mismatched = boundary = 0
    nodes = sorted(g.nodes)
    for t in range(g.p):
        sketches = {v: build_sketch(g.neighbours(v, t), sp) for v in g.active_nodes(t)}
        for u, v in combinations(nodes, 2):
            profile = oracle.pair_profile(g, u, v, t)
            if profile.common_count < 1:
                continue
            decisions += 1
            adj = 1 if v in g.neighbours(u, t) else 0
            if sketch_twin(sketches[u], sketches[v], adj, d) == (profile.difference <= d):
                continue
            mismatched += 1
            scale = sp.epsilon * max(g.degree(u, t), g.degree(v, t))
            if abs(profile.difference - d) <= 2 * scale + 1 or profile.common_count <= scale + 0.5:
                boundary += 1
    assert mismatched > 0
    assert (report.decisions, report.mismatched_decisions, report.boundary_decisions) == (
        decisions,
        mismatched,
        boundary,
    )


@given(temporal_graphs(max_n=8), st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=60, deadline=None)
def test_widened_round_verdicts_equal_delta_windows(g, d, data):
    delta = data.draw(st.integers(min_value=1, max_value=g.p))
    verdicts = all_windows(g, ProblemParams(1, d))
    widened = {v: twin_windows(singles, g.p, delta) for v, singles in verdicts.items()}
    assert widened == all_windows(g, ProblemParams(delta, d))


def test_sketch_windows_equal_oracle_with_generous_capacity(wrap_graph):
    sp = SketchParams(k=32, epsilon=0.2, nu=0.1, hash_seed=7)
    config = RunConfig(params=ProblemParams(3, 0), mode="sketch", sketch_params=sp)
    result = run(wrap_graph, config)
    assert result.windows == all_windows(wrap_graph, ProblemParams(3, 0))
    assert result.windows[0] == {TwinWindow(1, 3)}


def test_exact_equality_over_random_corpus():
    for seed in range(40):
        g = generate_random(4 + seed % 12, 1 + seed % 6, (0.1, 0.3, 0.6)[seed % 3], seed=seed)
        params = ProblemParams(1 + seed % g.p, seed % 4)
        result = run(g, RunConfig(params=params))
        assert result.windows == all_windows(g, params), f"seed {seed}"
        assert result.rounds_executed == 2 * g.p
