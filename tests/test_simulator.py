import pytest

from tvtwins import simulator
from tvtwins import (
    ProblemParams,
    RunConfig,
    SketchParams,
    TemporalGraph,
    TwinWindow,
    all_windows,
    compare_with_oracle,
    generate_random,
    id_width,
    run,
)
from tvtwins.cli import build_result_document, document_json

from .conftest import path_graph


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


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(params=ProblemParams(1, 0), mode="bogus")
    with pytest.raises(ValueError):
        RunConfig(params=ProblemParams(1, 0), mode="sketch")
    with pytest.raises(ValueError):
        run(path_graph(3), RunConfig(params=ProblemParams(2, 0)))  # delta > p


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
    # The audit reuses the run's sketches: one engine build per node and round.
    calls = []
    build = simulator.build_sketch
    monkeypatch.setattr(simulator, "build_sketch", lambda *a: calls.append(a) or build(*a))
    g = generate_random(12, 3, 0.5, seed=9)
    sp = SketchParams(k=4, epsilon=0.2, nu=0.1, hash_seed=1)
    report = compare_with_oracle(g, RunConfig(ProblemParams(2, 1), "sketch", sp))
    assert report.decisions > 0
    assert len(calls) == g.n * g.p


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
