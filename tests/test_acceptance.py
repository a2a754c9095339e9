"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1, 2, 3 and 6 share one corpus of 1000 seeded random instances,
executed once per session by the ``corpus`` fixture.
"""

import random
import time

import pytest

from tvtwins import (
    ProblemParams,
    RunConfig,
    Simulation,
    SketchParams,
    TwinWindow,
    all_windows,
    generate_random,
    parse_tel,
    run,
    serialize_tel,
)
from tvtwins.cli import build_result_document, document_json
from tvtwins.graph import id_width
from tvtwins.oracle import is_d_twin, pair_profile
from tvtwins.protocol import Message, message_bits
from tvtwins.sketch import build_sketch, calibrated_capacity, estimate_intersection

from .conftest import WRAP_TEL, all_pairs_windows, path_graph, prop1_check, run_with_snapshots

CORPUS_SIZE = 1000
EDGE_PROBS = (0.1, 0.3, 0.6)
# Every SKETCH_EVERY-th corpus instance also runs in sketch mode at capacity 4,
# below many of its degrees, so full and under-full sketches occur.
SKETCH_EVERY = 50


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.fixture(scope="module")
def corpus():
    """Run protocol and reference over the shared random corpus once."""
    rng = random.Random(0xA11CE)
    summary = {
        "instances": 0,
        "window_mismatches": [],
        "oracle_scan_mismatches": [],
        "round_count_errors": [],
        "bound_violations": [],
        "tight_instances": 0,
        "realtime_errors": [],
        "realtime_windows": {"exact": 0, "sketch": 0},
    }
    started = time.perf_counter()
    for i in range(CORPUS_SIZE):
        n = rng.randint(4, 40)
        p = rng.randint(1, 12)
        prob = rng.choice(EDGE_PROBS)
        delta = rng.randint(1, p)
        d = rng.randint(0, 4)
        graph = generate_random(n, p, prob, seed=rng.getrandbits(48))
        params = ProblemParams(delta, d)

        configs = {"exact": RunConfig(params=params)}
        if i % SKETCH_EVERY == 0:
            sp = SketchParams(k=4, epsilon=0.2, nu=0.1, hash_seed=i)
            configs["sketch"] = RunConfig(params, "sketch", sp)
        for mode, config in configs.items():
            outcome, violations, checked = run_with_snapshots(Simulation(graph, config))
            summary["realtime_errors"] += [(i, mode, *violation) for violation in violations]
            summary["realtime_windows"][mode] += checked
            if mode == "exact":
                result = outcome
        summary["instances"] += 1

        expected = all_windows(graph, params)
        if result.windows != expected:
            summary["window_mismatches"].append(i)
        if expected != all_pairs_windows(graph, params):
            summary["oracle_scan_mismatches"].append(i)
        if result.rounds_executed != 2 * p:
            summary["round_count_errors"].append(i)

        bound = graph.max_degree() * 2 * id_width(graph.n)
        if result.stats.max_phase2_bits > bound:
            summary["bound_violations"].append(i)
        if graph.max_degree() >= 1 and result.stats.max_phase2_bits == bound:
            summary["tight_instances"] += 1
    summary["elapsed"] = time.perf_counter() - started
    return summary


def test_criterion_1_oracle_equivalence(corpus):
    ok = (
        corpus["instances"] >= 1000
        and not corpus["window_mismatches"]
        and not corpus["oracle_scan_mismatches"]
    )
    report(
        1,
        "oracle equivalence",
        ok,
        f"{corpus['instances']} instances, "
        f"{len(corpus['window_mismatches'])} mismatches, "
        f"{len(corpus['oracle_scan_mismatches'])} against the all-pairs scan, "
        f"{corpus['elapsed']:.1f}s",
    )
    assert corpus["instances"] >= 1000
    assert corpus["window_mismatches"] == []
    assert corpus["oracle_scan_mismatches"] == []


def test_criterion_2_round_count(corpus):
    ok = not corpus["round_count_errors"]
    report(2, "round count 2p", ok, f"{corpus['instances']} instances")
    assert corpus["round_count_errors"] == []


def test_criterion_3_message_bound(corpus):
    ok = not corpus["bound_violations"] and corpus["tight_instances"] >= 1
    report(
        3,
        "phase-2 size bound",
        ok,
        f"0 violations expected, got {len(corpus['bound_violations'])}; "
        f"bound attained on {corpus['tight_instances']} instances",
    )
    assert corpus["bound_violations"] == []
    assert corpus["tight_instances"] >= 1


def test_criterion_4_path_count_cross_check():
    rng = random.Random(0xC0FFEE)
    checked = 0
    failures = []
    for i in range(100):
        n = rng.randint(4, 20)
        p = rng.randint(1, 8)
        graph = generate_random(n, p, rng.choice(EDGE_PROBS), seed=rng.getrandbits(48))
        d = rng.randint(0, 4)
        nodes = sorted(graph.nodes)
        for t in range(p):
            for a, u in enumerate(nodes):
                for v in nodes[a + 1 :]:
                    profile = pair_profile(graph, u, v, t)
                    if profile.common_count < 1:
                        continue
                    checked += 1
                    trials = {d, profile.difference}
                    if profile.difference > 0:
                        trials.add(profile.difference - 1)
                    for d_try in trials:
                        if prop1_check(graph, u, v, t, d_try) != is_d_twin(graph, u, v, t, d_try):
                            failures.append((i, u, v, t, d_try))
    ok = checked > 0 and not failures
    report(4, "path-count equivalence", ok, f"{checked} pair-rounds checked")
    assert checked > 0
    assert failures == []


def test_criterion_5_wrap_fixture():
    graph = parse_tel(WRAP_TEL)
    params = ProblemParams(3, 0)
    protocol = run(graph, RunConfig(params=params)).windows
    reference = all_windows(graph, params)
    expected = {TwinWindow(1, 3)}
    ok = protocol[0] == expected and reference[0] == expected
    report(5, "wrap-around fixture", ok, f"node 0 windows: {sorted(protocol[0])}")
    assert protocol[0] == expected
    assert reference[0] == expected


def test_criterion_6_realtime_availability(corpus):
    # The verdicts for t are final at round p+t: each slot is written then and
    # never again, no later slot holds a verdict yet, and so a window inside the
    # period has all its verdicts by round p+s+delta-1 (see run_with_snapshots).
    windows = corpus["realtime_windows"]
    ok = not corpus["realtime_errors"] and windows["exact"] > 0 and windows["sketch"] > 0
    report(
        6,
        "real-time availability",
        ok,
        f"{len(corpus['realtime_errors'])} violations over {windows['exact']} exact and "
        f"{windows['sketch']} sketch windows inside the period, {corpus['instances']} instances",
    )
    assert corpus["realtime_errors"] == []
    assert windows["exact"] > 0 and windows["sketch"] > 0


def test_criterion_7_path_canonicals():
    p3 = path_graph(3)
    p3_ok = is_d_twin(p3, 1, 3, 0, 0)
    longer_ok = True
    for n in range(4, 11):
        graph = path_graph(n)
        windows = all_windows(graph, ProblemParams(1, 0))
        if any(windows[v] for v in graph.nodes):
            longer_ok = False
    ok = p3_ok and longer_ok
    report(7, "path canonicals", ok, "3-path twin, 4..10-paths twin-free")
    assert p3_ok
    assert longer_ok


def test_criterion_8_sketch_accuracy():
    epsilon, nu = 0.2, 0.1
    k = calibrated_capacity(epsilon, nu)
    rng = random.Random(0xBADA55)
    trials = 10_000
    hits = 0
    started = time.perf_counter()
    for i in range(trials):
        size_a = rng.randint(50, 500)
        size_b = rng.randint(50, 500)
        overlap = rng.randint(0, min(size_a, size_b))
        sp = SketchParams(k=k, epsilon=epsilon, nu=nu, hash_seed=i)
        a = build_sketch(range(size_a), sp)
        b = build_sketch(range(size_a - overlap, size_a - overlap + size_b), sp)
        if abs(estimate_intersection(a, b) - overlap) <= epsilon * max(size_a, size_b):
            hits += 1
    rate = hits / trials

    lossless_failures = 0
    for i in range(2000):
        size_a = rng.randint(0, k - 1)
        size_b = rng.randint(0, k - 1)
        overlap = rng.randint(0, min(size_a, size_b))
        sp = SketchParams(k=k, epsilon=epsilon, nu=nu, hash_seed=10_000 + i)
        a = build_sketch(range(size_a), sp)
        b = build_sketch(range(size_a - overlap, size_a - overlap + size_b), sp)
        if estimate_intersection(a, b) != float(overlap):
            lossless_failures += 1

    elapsed = time.perf_counter() - started
    ok = rate >= 1 - nu and lossless_failures == 0
    report(
        8,
        "sketch accuracy",
        ok,
        f"k={k}, within-band rate {rate:.4f} over {trials} pairs, "
        f"{lossless_failures} lossless failures, {elapsed:.1f}s",
    )
    assert rate >= 1 - nu
    assert lossless_failures == 0


def test_criterion_9_sketch_payload_independence():
    # A sketch costs what message_bits charges it, 16 + W + 64 * min(deg, k)
    # bits, so at most 16 + W + 64k whatever the degree; the graphs have
    # degrees on both sides of k.  A sketch run sends the exact run's entries
    # and, with each phase-2 entry, the sketch of the node it names: the entry
    # of x at t is forwarded by each of x's deg_t(x) neighbours.
    k = 16
    params = ProblemParams(2, 1)
    degrees, wrong_costs, wrong_totals = set(), [], []
    for n, p, prob, seed in ((6, 2, 0.9, 1), (60, 3, 0.3, 2), (300, 1, 0.02, 3), (40, 5, 0.6, 4)):
        graph = generate_random(n, p, prob, seed=seed)
        width = id_width(graph.n)
        sp = SketchParams(k=k, epsilon=0.2, nu=0.1, hash_seed=seed)
        expected = 0
        for t in range(graph.p):
            for v in graph.nodes:
                deg = graph.degree(v, t)
                cost = 16 + width + 64 * min(deg, k)
                sketch = build_sketch(graph.neighbours(v, t), sp)
                charged = message_bits(Message(((v, deg),), {v: sketch}), width) - 2 * width
                if charged != cost or charged > 16 + width + 64 * k:
                    wrong_costs.append((seed, v, t, charged))
                degrees.add(deg)
                expected += deg * cost
        exact = run(graph, RunConfig(params)).stats.total_bits
        sketched = run(graph, RunConfig(params, "sketch", sp)).stats.total_bits
        if sketched - exact != expected:
            wrong_totals.append((seed, sketched - exact, expected))
    ok = not wrong_costs and not wrong_totals and min(degrees) < k < max(degrees)
    detail = f"k={k}, degrees {min(degrees)}..{max(degrees)}, at most {16 + 64 * k} + W bits"
    report(9, "sketch payload bound", ok, detail)
    assert min(degrees) < k < max(degrees)
    assert wrong_costs == []
    assert wrong_totals == []


def test_criterion_10_determinism():
    rng = random.Random(0xD5EED)
    failures = []
    for i in range(20):
        n = rng.randint(5, 25)
        p = rng.randint(1, 6)
        graph_text = serialize_tel(
            generate_random(n, p, rng.choice(EDGE_PROBS), seed=rng.getrandbits(48))
        )
        delta = rng.randint(1, p)
        params = ProblemParams(delta, rng.randint(0, 3))
        for mode in ("exact", "sketch"):
            sp = (
                SketchParams(k=32, epsilon=0.2, nu=0.1, hash_seed=i)
                if mode == "sketch"
                else None
            )

            def render() -> str:
                graph = parse_tel(graph_text)
                config = RunConfig(params=params, mode=mode, sketch_params=sp, seed=i)
                result = run(graph, config)
                doc = build_result_document(
                    graph, params, mode, i, result.windows, result.stats.as_dict(), sp
                )
                return document_json(doc)

            if render().encode() != render().encode():
                failures.append((i, mode))
    ok = not failures
    report(10, "determinism", ok, "20 instances, both modes, byte-identical documents")
    assert failures == []
