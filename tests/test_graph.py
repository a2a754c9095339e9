import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvtwins import (
    ProblemParams,
    TelParseError,
    TemporalGraph,
    generate_random,
    parse_tel,
    serialize_tel,
)
from tvtwins.graph import (
    MAX_NODES,
    MAX_PERIOD,
    PlantInfeasibleError,
    TwinPlant,
    TwinWindow,
    id_width,
    twin_windows,
)
from tvtwins.oracle import pair_profile

from .conftest import WRAP_TEL, structured_graphs, temporal_graphs


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
        ([T] * 4, 5, [0, 1, 2, 3]),  # delta >= p: a verdict in every round
        ([T] * 4, 10**18, [0, 1, 2, 3]),
        ([T, T, F, T], 9, []),
    ],
)
def test_window_starts(flags, delta, starts):
    # flags[t] is one pair's verdict at round t; twin_windows reads them as (peer, t).
    verdicts = [(9, t) for t, flag in enumerate(flags) if flag]
    assert twin_windows(verdicts, len(flags), delta) == {TwinWindow(9, t0) for t0 in starts}


def test_twin_windows_reads_each_peer_apart():
    # Peer 1 holds at rounds 3, 0, 1 and peer 2 at 1, 2: together they cover
    # every round, yet only peer 1's run is three rounds long.
    verdicts = [(1, 3), (2, 1), (1, 0), (2, 2), (1, 1), (1, 0)]
    assert twin_windows(verdicts, 4, 3) == {TwinWindow(1, 3)}
    assert twin_windows(verdicts, 4, 2) == {TwinWindow(1, 3), TwinWindow(1, 0), TwinWindow(2, 1)}
    assert twin_windows(iter(verdicts), 4, 1) == set(map(TwinWindow._make, verdicts))
    assert twin_windows([], 4, 1) == set()


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


def parse_error(text, label, line_no, reason):
    """One rejected document; the test id is the text and a short label."""
    return pytest.param(text, line_no, reason, id=f"{text}-{label}")


@pytest.mark.parametrize(
    "text,line_no,reason",
    [
        parse_error("p=2 n=2\n0 1 1\n", "self-loop", 2, "self-loop at node 1"),
        parse_error("p=2 n=2\n2 0 1\n", "round 2 outside", 2, "round 2 outside [0, 2)"),
        parse_error("p=2 n=2\n-1 0 1\n", "round -1 outside", 2, "round -1 outside [0, 2)"),
        parse_error(
            "p=1 n=2\n0 0 1\n0 1 0\n", "duplicate edge", 3, "duplicate edge (0, 1) at round 0"
        ),
        parse_error("p=1 n=2\n0 0 x\n", "non-integer", 2, "non-integer token in '0 0 x'"),
        parse_error("p=1 n=2\n0 0\n", "expected 't u v'", 2, "expected 't u v', got '0 0'"),
        parse_error(
            "n=2 p=1\n", "malformed header", 1,
            "malformed header 'n=2 p=1', expected 'p=<int> n=<int>'",
        ),
        parse_error("p=0 n=2\n", "period must be positive", 1, "period must be positive, got 0"),
        parse_error(
            "p=1 n=0\n", "node count must be positive", 1, "node count must be positive, got 0"
        ),
        parse_error(
            "p=1 n=2\n0 0 2\n", "not representable", 2,
            "node id 2 is not representable in 1 bits (n=2)",
        ),
        parse_error("p=1 n=2\n0 -1 0\n", "non-negative", 2, "node ids must be non-negative"),
        parse_error("", "missing header", 0, "missing header 'p=<int> n=<int>'"),
        parse_error("# only\n\n  \n", "comments only", 0, "missing header 'p=<int> n=<int>'"),
        parse_error("p=x n=2\n", "non-integer header", 1, "non-integer header value in 'p=x n=2'"),
        # Two faults on one line: the first check in the documented order wins.
        parse_error("p=1 n=2\n0 0 x y\n", "count before integers", 2, "expected 't u v', got '0 0 x y'"),
        parse_error("p=2 n=2\n3 -1 0\n", "round before sign", 2, "round 3 outside [0, 2)"),
        parse_error("p=1 n=2\n0 -1 -1\n", "sign before self-loop", 2, "node ids must be non-negative"),
        parse_error("p=1 n=2\n0 5 5\n", "self-loop before width", 2, "self-loop at node 5"),
        parse_error(
            "p=1 n=2\n0 4 5\n", "width names the first id", 2,
            "node id 4 is not representable in 1 bits (n=2)",
        ),
        parse_error(
            "p=1 n=2\n0 5 4\n", "width names the first id, larger", 2,
            "node id 5 is not representable in 1 bits (n=2)",
        ),
        parse_error(
            "p=1 n=2\n0 0 4\n", "width names the second id", 2,
            "node id 4 is not representable in 1 bits (n=2)",
        ),
        # Layout: indented comments, tabs and CRLF; a message quotes the line stripped.
        parse_error("p=1 n=2\n   # comment\n0 1 1\n", "indented comment", 3, "self-loop at node 1"),
        parse_error("p=1\tn=2\n0\t1\t1\n", "tab separators", 2, "self-loop at node 1"),
        parse_error(
            "p=1 n=2\r\n0 0 1\r\n 0  1 0 \r\n", "crlf duplicate", 3,
            "duplicate edge (0, 1) at round 0",
        ),
        parse_error("p=1 n=2\r\n\t0 0 \r\n", "crlf quoted stripped", 2, "expected 't u v', got '0 0'"),
    ],
)
def test_parse_errors(text, line_no, reason):
    with pytest.raises(TelParseError) as err:
        parse_tel(text)
    assert (err.value.line_no, err.value.reason) == (line_no, reason)
    assert str(err.value) == f"line {line_no}: {reason}"


@pytest.mark.parametrize("sep", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_lines_end_at_lf_only(sep):
    # Every other line break of str.splitlines is a blank inside a line.
    text = f"p=2 n=3\n# page break {sep} here\n0 0 1\n0{sep}1{sep}2\n"
    assert parse_tel(text).edges(0) == frozenset({(0, 1), (1, 2)})
    with pytest.raises(TelParseError) as err:
        parse_tel(text + "1 2 2\n")
    assert (err.value.line_no, err.value.reason) == (5, "self-loop at node 2")


# int() reads each of these tokens as a number.
@pytest.mark.parametrize(
    "text, line_no, token",
    [
        ("p=+2 n=3\n", 1, "+2"),
        ("p=2 n=3_0\n", 1, "3_0"),
        ("p=2 n=3\n0 0 +1\n", 2, "+1"),
        ("p=2 n=3\n0 1_0 2\n", 2, "1_0"),
        ("p=2 n=3\n0 0 \u0663\n", 2, "\u0663"),  # Arabic-Indic three
    ],
    ids=["header-plus", "header-underscore", "edge-plus", "edge-underscore", "edge-arabic-indic"],
)
def test_numbers_are_plain_ascii_decimal(text, line_no, token):
    with pytest.raises(TelParseError) as err:
        parse_tel(text)
    reason = f"{token!r} is not a plain ASCII decimal integer"
    assert (err.value.line_no, err.value.reason) == (line_no, reason)


def test_a_comment_may_hold_any_character():
    text = "# Z\u00e4hlung \u0663, +1, 3_0\np=2 n=3\n  # \u0663\n0 0 1\n"
    assert parse_tel(text) == parse_tel("p=2 n=3\n0 0 1\n")


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


def test_active_nodes_are_the_nodes_with_an_edge():
    g = TemporalGraph(p=2, nodes={1, 2, 3, 5}, edges_at={0: {(1, 2), (2, 3)}}, n=6)
    assert set(g.active_nodes(0)) == {1, 2, 3} == set(g.active_nodes(2))
    assert set(g.active_nodes(1)) == set()


def test_parse_memory_follows_edges_not_period():
    # One edge among n=5000 nodes: the graph stores nothing per isolated node
    # and round, so p=64 costs about what p=1 does.
    def peak(p):
        text = f"p={p} n=5000\n0 0 1\n"
        tracemalloc.start()
        try:
            parse_tel(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) < 2 * peak(1)


@pytest.mark.parametrize(
    "header, reason",
    [
        ("p=100000000 n=2", "period 100000000 is above the limit 100000"),
        ("p=2000000 n=4", "period 2000000 is above the limit 100000"),
        ("p=1 n=4000000", "node count 4000000 is above the limit 131072"),
        ("p=1 n=1000000000000", "node count 1000000000000 is above the limit 131072"),
    ],
)
def test_header_past_the_limits_fails_at_line_1(header, reason):
    # Rejected before any per-round or per-node table is allocated.
    tracemalloc.start()
    try:
        with pytest.raises(TelParseError) as err:
            parse_tel(f"{header}\n0 0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.line_no, err.value.reason) == (1, reason)
    assert peak < 100_000


def test_size_limits_are_inclusive_in_every_constructor():
    g = parse_tel(f"p={MAX_PERIOD} n={MAX_NODES}\n0 0 1\n")
    assert (g.p, g.n) == (MAX_PERIOD, MAX_NODES)
    with pytest.raises(ValueError, match=f"period {MAX_PERIOD + 1} is above the limit"):
        TemporalGraph(p=MAX_PERIOD + 1, nodes={0, 1})
    with pytest.raises(ValueError, match=f"node count {MAX_NODES + 1} is above the limit"):
        TemporalGraph(p=1, nodes={0, 1}, n=MAX_NODES + 1)
    with pytest.raises(ValueError, match=f"period {MAX_PERIOD + 1} is above the limit"):
        generate_random(2, MAX_PERIOD + 1, 0.0)
    with pytest.raises(ValueError, match=f"node count {MAX_NODES + 1} is above the limit"):
        generate_random(MAX_NODES + 1, 1, 0.0)


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
    with pytest.raises(ValueError, match=r"round index 0\.0 "):
        TemporalGraph(p=2, nodes={0, 1}, edges_at={0.0: {(0, 1)}})
    with pytest.raises(ValueError, match="round index '0' "):
        TemporalGraph(p=2, nodes={0, 1}, edges_at={"0": {(0, 1)}})
    with pytest.raises(ValueError, match="not representable"):
        TemporalGraph(p=1, nodes={0, 9}, edges_at={}, n=2)
    # 1.0 and True equal node IDs, but no .tel token reads as either.
    with pytest.raises(ValueError, match=r"edge \(0, 1\.0\) .* not an int"):
        TemporalGraph(p=1, nodes={0, 1}, edges_at={0: {(0, 1.0)}})
    with pytest.raises(ValueError, match=r"edge \(True, 0\) .* not an int"):
        TemporalGraph(p=1, nodes={0, 1}, edges_at={0: {(True, 0)}})
    with pytest.raises(ValueError, match="node id True "):
        TemporalGraph(p=1, nodes={0, True})


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


@given(temporal_graphs())
@settings(max_examples=60)
def test_round_trip_property(g):
    again = parse_tel(serialize_tel(g))
    assert again == g
    assert hash(again) == hash(g)


@given(structured_graphs())
@settings(max_examples=60)
def test_round_trip_property_sparse_ids(graph_and_d):
    # IDs up to 2^W - 1, so endpoints may be n or above and some of 0..n-1
    # may be absent; parsing adds the declared range, so the graphs differ.
    g, _ = graph_and_d
    text = serialize_tel(g)
    again = parse_tel(text)
    assert serialize_tel(again) == text
    assert [again.edges(t) for t in range(g.p)] == [g.edges(t) for t in range(g.p)]
    assert again.nodes == set(range(g.n)).union(*map(g.active_nodes, range(g.p)))


@given(temporal_graphs())
@settings(max_examples=60)
def test_neighbour_symmetry_and_periodicity(g):
    for t in range(g.p):
        for v in g.nodes:
            assert g.neighbours(v, t) == g.neighbours(v, t + g.p)
            for u in g.neighbours(v, t):
                assert v in g.neighbours(u, t)
        pairs = {(min(u, v), max(u, v)) for v in g.nodes for u in g.neighbours(v, t)}
        assert g.edges(t) == pairs


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


# Tokens a hostile or broken writer might put where a number belongs: huge,
# negative, or not plain decimal (some of which int() still accepts).
_ODD_NUMBERS = st.one_of(
    st.integers(min_value=MAX_NODES, max_value=2**80).map(str),
    st.integers(min_value=-50, max_value=0).map(str),
    st.sampled_from(["0x1f", "1e3", "1.5", "two", "3_0", "+2", "٣", "", "1 2", "p=2", "#7"]),
)


@st.composite
def _mutated_tel(draw):
    """A valid .tel text from ``serialize_tel``, then one to three mutations:
    a line dropped, duplicated or swapped with another; a token dropped,
    duplicated, swapped or replaced by an odd number; or the header moved
    later or given twice."""
    lines = serialize_tel(draw(temporal_graphs())).split("\n")
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        j = draw(st.integers(min_value=0, max_value=len(lines)))
        tokens = lines[i].split()
        kind = draw(st.sampled_from(["drop", "dup", "swap", "header-late", "header-twice"]
                                    + ["token-drop", "token-dup", "token-swap", "number"] * 2))
        if kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(j, lines[i])
        elif kind == "swap":
            j = min(j, len(lines) - 1)
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "header-late":
            lines.insert(j, lines.pop(0))
        elif kind == "header-twice":
            lines.insert(j, lines[0])
        elif tokens:
            k = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
            if kind == "token-drop":
                del tokens[k]
            elif kind == "token-dup":
                tokens.insert(k, tokens[k])
            elif kind == "token-swap":
                m = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
                tokens[k], tokens[m] = tokens[m], tokens[k]
            else:  # a header token keeps its "p=" or "n=", an edge token is replaced whole
                prefix = tokens[k][:2] if tokens[k][1:2] == "=" else ""
                tokens[k] = prefix + draw(_ODD_NUMBERS)
            lines[i] = " ".join(tokens)
        if not lines:
            lines.append("")
    return "\n".join(lines)


def _has_content(lines) -> bool:
    return any(line.split() and line.split()[0][0] != "#" for line in lines)


@given(_mutated_tel())
@example("0 0 1\np=2 n=3\n")  # header late: the first line is no header
@example("p=2 n=3\n0 0 1\np=2 n=3\n")  # header twice
@example("\n\np=2 n=-3\n0 0 1\n")  # a bad header after blank lines
@example("p=2 n=3\n0 0 1\n1 0 2\n0 1 0\n")  # the same edge twice in a round
@example("p=2 n=3\n0 0 1\n0 1 99999999999999999999\n")  # huge ID
@example("p=2 n=3\n0 0 ٣\n")  # a non-ASCII decimal digit, which int() reads as 3: fails at line 2
@settings(max_examples=300)
def test_a_mutated_text_parses_or_fails_at_the_first_bad_line(text):
    # A text either parses, and then round-trips through serialize_tel, or
    # fails at some line L: every line before L is good (that prefix parses,
    # or holds no header when L is the header line) and line L is bad (the
    # text cut after it fails with the same error).
    try:
        g = parse_tel(text)
    except TelParseError as err:
        lines = text.split("\n")
        bad = err.line_no
        if bad == 0:
            assert not _has_content(lines) and "missing header" in err.reason
            return
        with pytest.raises(TelParseError) as cut_after:
            parse_tel("\n".join(lines[:bad]))
        assert str(cut_after.value) == str(err)
        before = "\n".join(lines[: bad - 1])
        if _has_content(lines[: bad - 1]):
            parse_tel(before)
        else:
            with pytest.raises(TelParseError, match="line 0: missing header"):
                parse_tel(before)
    else:
        assert parse_tel(serialize_tel(g)) == g
