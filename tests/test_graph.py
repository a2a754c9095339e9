import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvtwins import (
    PlantInfeasibleError,
    ProblemParams,
    TelParseError,
    TemporalGraph,
    TwinPlant,
    generate_random,
    id_width,
    pair_profile,
    parse_tel,
    serialize_tel,
)
from tvtwins.graph import window_starts

from .conftest import WRAP_TEL, temporal_graphs


def test_parse_p3(p3):
    assert p3.p == 1
    assert p3.n == 3
    assert p3.nodes == frozenset({0, 1, 2, 3})
    assert p3.neighbours(2, 0) == frozenset({1, 3})


T, F = True, False


@pytest.mark.parametrize(
    "flags, delta, starts",
    [
        ([T, T, F, T], 3, [3]),  # flags 3, 0, 1: the run straddles the boundary
        ([T, T, F, T], 2, [0, 3]),
        ([F, T, T, F, T], 1, [1, 2, 4]),
        ([T] * 5, 5, [0, 1, 2, 3, 4]),
        ([T, T, F, T, T], 5, []),
        ([F] * 4, 1, []),
        ([F] * 4, 4, []),
    ],
)
def test_window_starts(flags, delta, starts):
    assert window_starts(flags, delta) == starts


def test_parse_wrap_fixture(wrap_graph):
    assert wrap_graph.p == 4
    assert sum(len(wrap_graph.edges(t)) for t in range(4)) == 10
    assert wrap_graph.max_degree() == 3
    assert wrap_graph.neighbours(2, 2) == frozenset({0, 1, 3})


def test_parse_tolerates_comments_blank_lines_and_crlf():
    text = "# comment\r\n\r\np=2 n=2\r\n # another\r\n0 0 1\r\n"
    g = parse_tel(text)
    assert g.edges(0) == frozenset({(0, 1)})
    assert g.edges(1) == frozenset()


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p=2 n=2\n0 1 1\n", "self-loop"),
        ("p=2 n=2\n2 0 1\n", "round 2 outside"),
        ("p=2 n=2\n-1 0 1\n", "round -1 outside"),
        ("p=1 n=2\n0 0 1\n0 1 0\n", "duplicate edge"),
        ("p=1 n=2\n0 0 x\n", "non-integer"),
        ("p=1 n=2\n0 0\n", "expected 't u v'"),
        ("n=2 p=1\n", "malformed header"),
        ("p=0 n=2\n", "period must be positive"),
        ("p=1 n=0\n", "node count must be positive"),
        ("p=1 n=2\n0 0 2\n", "not representable"),
        ("p=1 n=2\n0 -1 0\n", "non-negative"),
        ("", "missing header"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(TelParseError) as err:
        parse_tel(text)
    assert fragment in str(err.value)


def test_parse_error_reports_line_number():
    with pytest.raises(TelParseError) as err:
        parse_tel("# c\np=2 n=2\n0 0 1\n1 1 1\n")
    assert err.value.line_no == 4


def test_id_width():
    assert [id_width(n) for n in (1, 2, 3, 4, 5, 16, 17)] == [0, 1, 2, 2, 3, 4, 5]


def test_ids_beyond_n_accepted_while_representable():
    # n=3 gives 2-bit ids, so id 3 is fine even though 3 >= n.
    g = parse_tel("p=1 n=3\n0 1 3\n")
    assert 3 in g.nodes


def test_neighbours_unknown_node(p3):
    with pytest.raises(KeyError):
        p3.neighbours(9, 0)


def test_isolated_node_has_empty_neighbourhood():
    g = TemporalGraph(p=1, nodes={1, 2, 3, 5}, edges_at={0: {(1, 2), (2, 3)}}, n=6)
    assert g.neighbours(5, 0) == frozenset()
    assert g.neighbours(5, 3) == frozenset()


def test_periodicity(p3):
    assert p3.neighbours(2, 0) == p3.neighbours(2, 7)


def test_max_degree_edgeless():
    g = TemporalGraph(p=2, nodes={0, 1, 2})
    assert g.max_degree() == 0


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        TemporalGraph(p=1, nodes={0, 1}, edges_at={0: {(0, 0)}})
    with pytest.raises(ValueError, match="outside the node set"):
        TemporalGraph(p=1, nodes={0, 1}, edges_at={0: {(0, 2)}})
    with pytest.raises(ValueError, match="round index"):
        TemporalGraph(p=1, nodes={0, 1}, edges_at={1: {(0, 1)}})
    with pytest.raises(ValueError, match="not representable"):
        TemporalGraph(p=1, nodes={0, 9}, edges_at={}, n=2)


def test_serialize_round_trip_wrap():
    g = parse_tel(WRAP_TEL)
    again = parse_tel(serialize_tel(g))
    assert again == g


def test_generate_full_density_two_nodes():
    g = generate_random(2, 1, 1.0, seed=123)
    assert g.edges(0) == frozenset({(0, 1)})


def test_generate_deterministic():
    a = generate_random(12, 3, 0.4, seed=42)
    b = generate_random(12, 3, 0.4, seed=42)
    assert a == b
    assert a != generate_random(12, 3, 0.4, seed=43)


def test_generate_validation():
    with pytest.raises(ValueError):
        generate_random(1, 1, 0.5)
    with pytest.raises(ValueError):
        generate_random(4, 0, 0.5)
    with pytest.raises(ValueError):
        generate_random(4, 1, 1.5)


def test_plant_example():
    plant = TwinPlant(u=0, v=1, start=2, length=3, difference=0)
    g = generate_random(10, 4, 0.3, plant=plant, seed=7)
    for t in (2, 3, 0):
        profile = pair_profile(g, 0, 1, t)
        assert profile.common_count >= 1
        assert profile.difference == 0


def test_plant_infeasible():
    with pytest.raises(PlantInfeasibleError):
        generate_random(2, 1, 0.0, plant=TwinPlant(0, 1, 0, 1, 0))
    with pytest.raises(PlantInfeasibleError):
        generate_random(4, 1, 0.0, plant=TwinPlant(0, 1, 0, 1, 2))


def test_problem_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(0, 0)
    with pytest.raises(ValueError):
        ProblemParams(1, -1)
    with pytest.raises(ValueError):
        ProblemParams(3, 0).validate_for_period(2)
    ProblemParams(3, 0).validate_for_period(3)


@given(temporal_graphs())
@settings(max_examples=60)
def test_round_trip_property(g):
    assert parse_tel(serialize_tel(g)) == g


@given(temporal_graphs())
@settings(max_examples=60)
def test_neighbour_symmetry_and_periodicity(g):
    for t in range(g.p):
        for v in g.nodes:
            assert g.neighbours(v, t) == g.neighbours(v, t + g.p)
            for u in g.neighbours(v, t):
                assert v in g.neighbours(u, t)


@given(
    st.integers(min_value=4, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.0, 0.2, 0.5]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60)
def test_plant_contract_property(n, p, prob, diff, seed):
    diff = min(diff, n - 3)
    plant = TwinPlant(u=0, v=1, start=p - 1, length=min(2, p), difference=diff)
    g = generate_random(n, p, prob, plant=plant, seed=seed)
    for i in range(plant.length):
        profile = pair_profile(g, 0, 1, (plant.start + i) % p)
        assert profile.common_count >= 1
        assert profile.difference == diff
