"""Fast self-test of the benchmark's own checks.

    python3 -m pytest -q perfbench

The reference must agree with the oracle, and the checks built on it must
catch a dropped or shifted window and a flipped verdict.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tvtwins import ProblemParams, RunConfig, Simulation, all_windows, parse_tel  # noqa: E402
from tvtwins import cli, graph, oracle, protocol, simulator, sketch  # noqa: E402

from reference import Reference, check_windows  # noqa: E402
from tracer import Tracer  # noqa: E402
from workload import WORKLOADS, Workload, generate, to_tel  # noqa: E402

SMALL = [
    Workload("small", 9, n=24, p=5, mean_degree=3, delta=2, d=1, epsilon=0.2, nu=0.1),
    Workload("small-dense", 9, n=20, p=4, mean_degree=8, delta=3, d=2, epsilon=0.5, nu=0.3),
    Workload("small-strict", 9, n=40, p=6, mean_degree=2, delta=1, d=0, epsilon=0.2, nu=0.1),
]


def instance(workload, seed):
    adj = generate(workload, seed)
    return adj, parse_tel(to_tel(adj)), Reference(adj, workload.delta, workload.d)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
@pytest.mark.parametrize("seed", range(5))
def test_reference_agrees_with_oracle(workload, seed):
    _, g, ref = instance(workload, seed)
    windows = all_windows(g, ProblemParams(workload.delta, workload.d))
    assert ref.windows, "the planted clone pairs should give windows"
    assert check_windows(ref.windows, windows) is None
    assert ref.candidate_pairs == sum(
        oracle.pair_profile(g, u, v, t).common_count >= 1
        for t in range(g.p) for u in range(g.n) for v in range(u + 1, g.n)
    )


def test_planted_window_straddles_the_boundary():
    w = SMALL[0]
    _, _, ref = instance(w, 0)
    assert any(start + w.delta > w.p for _, _, start in ref.windows)


def test_window_check_catches_a_dropped_or_shifted_window():
    w = SMALL[0]
    _, g, ref = instance(w, 1)
    windows = all_windows(g, ProblemParams(w.delta, w.d))
    node = next(v for v in sorted(windows) if windows[v])
    window = min(windows[node])

    dropped = {v: set(ws) for v, ws in windows.items()}
    dropped[node].discard(window)
    assert check_windows(ref.windows, dropped) is not None

    shifted = {v: set(ws) for v, ws in windows.items()}
    shifted[node].discard(window)
    shifted[node].add(type(window)(window.peer, (window.start + 1) % w.p))
    assert check_windows(ref.windows, shifted) is not None


def test_closed_form_stats_and_mismatches_match_a_run():
    w = SMALL[1]
    _, g, ref = instance(w, 2)
    params = ProblemParams(w.delta, w.d)
    for mode, k in (("exact", None), ("sketch", 4)):
        sp = sketch.SketchParams(k, w.epsilon, w.nu) if k else None
        sim = Simulation(g, RunConfig(params, mode=mode, sketch_params=sp))
        result = sim.run()
        stats = {"rounds_executed": result.rounds_executed, **result.stats.as_dict()}
        for key, value in ref.expected_stats(mode, k).items():
            assert stats[key] == value, key
        twins_at = {v: s.twins_at for v, s in sim.states.items()}
        if mode == "exact":
            assert ref.mismatches(twins_at) == 0
            u, t = 0, 0
            v = next(x for x in range(1, g.n) if x not in twins_at[u][t])
            twins_at[u][t].add(v)  # one flipped verdict
            assert ref.mismatches(twins_at) == 1
        else:
            report = simulator.compare_with_oracle(g, RunConfig(params, mode=mode, sketch_params=sp))
            assert report.mismatched_decisions == ref.mismatches(twins_at)


def test_tracer_restores_the_program():
    modules = (graph, simulator, protocol, sketch, oracle, cli)
    classes = (graph.TemporalGraph, simulator.Simulation, protocol.NodeState)
    before = [vars(x).copy() for x in modules + classes]
    tracer = Tracer(modules)
    tracer.install()
    try:
        assert simulator.build_sketch is not before[1]["build_sketch"]
        w = SMALL[1]
        _, g, _ = instance(w, 3)
        sp = sketch.SketchParams(4, w.epsilon, w.nu)
        simulator.compare_with_oracle(g, RunConfig(ProblemParams(w.delta, w.d), "sketch", sp))
        layers = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert [vars(x) for x in modules + classes] == before
    assert layers["sketch.estimate_union_calls"] > 0
    assert layers["oracle.candidate_pairs"] > 0
    assert 0 < layers["simulator.audit_self_s"] < sum(
        e - s for name, s, e, _ in tracer.spans if name == "simulator.compare"
    )


def test_workloads_have_the_documented_capacities():
    k = {name: sketch.calibrated_capacity(w.epsilon, w.nu) for name, w in WORKLOADS.items()}
    assert k == {"dense-lossless": 273, "sparse-wide": 273, "lossy-long": 20}
