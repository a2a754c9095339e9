import hashlib
import json
import re
import weakref
from pathlib import Path

import pytest

import tvtwins
from tvtwins import cli, generate_random, parse_tel
from tvtwins.cli import main

from .conftest import P3_TEL, WRAP_TEL


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.tel"
    path.write_text(P3_TEL)
    return str(path)


@pytest.fixture
def wrap_file(tmp_path):
    path = tmp_path / "wrap.tel"
    path.write_text(WRAP_TEL)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def windows_of(doc: dict, node: int):
    for entry in doc["windows"]:
        if entry["node"] == node:
            return entry["twins"]
    raise AssertionError(f"node {node} missing from document")


def test_run_p3(capsys, p3_file):
    code, out, _ = run_cli(capsys, "run", "--input", p3_file, "--delta", "1", "--d", "0")
    assert code == 0
    doc = json.loads(out)
    assert windows_of(doc, 1) == [{"peer": 3, "start": 0}]
    assert windows_of(doc, 2) == []
    assert doc["input"] == {"n": 3, "p": 1, "max_degree": 2}


def test_run_wrap(capsys, wrap_file):
    code, out, _ = run_cli(capsys, "run", "--input", wrap_file, "--delta", "3", "--d", "0")
    assert code == 0
    doc = json.loads(out)
    assert windows_of(doc, 0) == [{"peer": 1, "start": 3}]


def test_delta_beyond_period_gives_the_period_windows(capsys, p3_file):
    # p = 1: delta 2 asks for the one round's verdict, as delta 1 does, so
    # each output equals the delta 1 one but for params.delta.
    for command in ("run", "oracle", "compare"):
        for mode in ("exact", "sketch"):
            outs = []
            for delta in ("1", "2"):
                code, out, err = run_cli(
                    capsys, command, "--input", p3_file, "--delta", delta, "--d", "0", "--mode", mode
                )
                assert (code, err) == (0, "")
                outs.append(out)
            if command != "compare":
                outs = [json.loads(out) for out in outs]
                assert [doc["params"].pop("delta") for doc in outs] == [1, 2]
                assert outs[0]["windows"] != []
            assert outs[0] == outs[1]


def test_run_rejects_sketch_capacity_one(capsys, p3_file):
    code, out, err = run_cli(
        capsys,
        "run", "--input", p3_file, "--delta", "1", "--d", "0", "--mode", "sketch", "--k", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: sketch capacity k must be at least 2")


def test_run_missing_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--input", str(tmp_path / "nope.tel"), "--delta", "1", "--d", "0"
    )
    assert code == 2
    assert "error:" in err


def test_run_parse_error_diagnostic(capsys, tmp_path):
    path = tmp_path / "bad.tel"
    path.write_text("p=1 n=2\n0 1 1\n")
    code, _, err = run_cli(capsys, "run", "--input", str(path), "--delta", "1", "--d", "0")
    assert code == 2
    assert "line 2" in err and "self-loop" in err


def test_input_lines_end_at_lf_crlf_or_a_lone_cr(capsys, tmp_path):
    # The CLI reads a file's line ends as text mode does, so each of the three
    # gives the same document, and an error the same line number.
    path = tmp_path / "ends.tel"
    outputs = []
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes(WRAP_TEL.replace("\n", end).encode())
        outputs.append(run_cli(capsys, "run", "--input", str(path), "--delta", "3", "--d", "0"))
        path.write_bytes(f"p=1 n=2{end}# c{end}0 1 1{end}".encode())
        code, _, err = run_cli(capsys, "run", "--input", str(path), "--delta", "1", "--d", "0")
        assert (code, err) == (2, "error: line 3: self-loop at node 1\n")
    assert outputs[0][0] == 0 and outputs[0] == outputs[1] == outputs[2]


def test_compare_has_no_stats_flag(capsys, p3_file):
    # compare writes a report, not a document, so it has no stats block.
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--input", p3_file, "--delta", "1", "--d", "0", "--stats"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --stats" in capsys.readouterr().err


def test_sketch_flags_warn_in_exact_mode(capsys, p3_file):
    code, out, err = run_cli(
        capsys, "run", "--input", p3_file, "--delta", "1", "--d", "0", "--k", "8"
    )
    assert code == 0
    assert "ignored" in err
    assert json.loads(out)["params"]["mode"] == "exact"


def test_compare_warns_once_for_all_trials(capsys):
    code, _, err = run_cli(
        capsys,
        "compare", "--gen", "15,4,0.3", "--trials", "3",
        "--k", "5", "--delta", "2", "--d", "1",
    )
    assert code == 0
    assert err == "warning: sketch flags ignored in exact mode\n"


def test_run_sketch_mode(capsys, p3_file):
    code, out, _ = run_cli(
        capsys,
        "run", "--input", p3_file, "--delta", "1", "--d", "0",
        "--mode", "sketch", "--k", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["mode"] == "sketch"
    assert doc["params"]["sketch"]["k"] == 8
    assert windows_of(doc, 1) == [{"peer": 3, "start": 0}]


def test_exports_are_the_documented_library():
    # The README's Library table names one export per row, in __all__ order.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(\w+)` \|", library, re.M)
    assert documented == tvtwins.__all__
    assert all(hasattr(tvtwins, name) for name in documented)


def test_oracle_matches_run_byte_for_byte(capsys, wrap_file):
    _, run_out, _ = run_cli(capsys, "run", "--input", wrap_file, "--delta", "3", "--d", "0")
    _, oracle_out, _ = run_cli(capsys, "oracle", "--input", wrap_file, "--delta", "3", "--d", "0")
    assert run_out == oracle_out


def test_stats_block(capsys, wrap_file):
    code, out, _ = run_cli(
        capsys, "run", "--input", wrap_file, "--delta", "3", "--d", "0", "--stats"
    )
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["max_phase2_bits"] <= stats["phase2_bound_bits"]
    assert stats["max_degree"] == 3
    assert len(stats["per_round"]) == 8


def test_out_writes_file(capsys, p3_file, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "run", "--input", p3_file, "--delta", "1", "--d", "0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert windows_of(json.loads(target.read_text()), 1) == [{"peer": 3, "start": 0}]


def test_compare_single_instance(capsys, wrap_file):
    code, out, _ = run_cli(capsys, "compare", "--input", wrap_file, "--delta", "3", "--d", "0")
    assert code == 0
    assert "0 differences / 1 trials" in out


def test_compare_generated_batch(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--gen", "20,6,0.3", "--trials", "10",
        "--delta", "3", "--d", "1", "--seed", "1",
    )
    assert code == 0
    assert "0 differences / 10 trials" in out


def test_compare_holds_one_generated_instance_at_a_time(capsys, monkeypatch):
    # Each instance is dropped before the next is generated, so memory does
    # not grow with --trials.
    made = []

    def generate(*args, **kwargs):
        assert [ref() for ref in made] == [None] * len(made)
        graph = generate_random(*args, **kwargs)
        made.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(cli, "generate_random", generate)
    for mode in ("exact", "sketch"):
        made.clear()
        code, out, _ = run_cli(
            capsys,
            "compare", "--gen", "12,3,0.3", "--trials", "4",
            "--delta", "2", "--d", "1", "--mode", mode,
        )
        assert code == 0 and " / 4 trials\n" in out
        assert len(made) == 4


@pytest.mark.parametrize("mode", ["exact", "sketch"])
def test_compare_invalid_gen_spec_fails_before_any_warning(capsys, mode):
    # The first instance is generated before the sketch flags are read, so
    # an invalid spec shows its error alone.
    code, out, err = run_cli(
        capsys,
        "compare", "--gen", "1,4,0.3", "--trials", "3", "--k", "5",
        "--delta", "1", "--d", "0", "--mode", mode,
    )
    assert (code, out, err) == (2, "", "error: need at least two nodes\n")


def test_compare_sketch_lossless(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--gen", "10,3,0.4", "--trials", "5",
        "--delta", "2", "--d", "1", "--mode", "sketch", "--k", "64",
    )
    assert code == 0
    assert "decision mismatch rate: 0.000000" in out


def test_compare_sketch_beyond_tolerance_exits_3(capsys, tmp_path):
    # Capacity 4 on a dense 30-node instance flips most decisions.
    path = tmp_path / "dense.tel"
    code = main(["gen", "--n", "30", "--p", "2", "--prob", "0.5", "--seed", "21", "--out", str(path)])
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "compare", "--input", str(path), "--delta", "1", "--d", "3",
        "--mode", "sketch", "--k", "4", "--epsilon", "0.9", "--nu", "0.5", "--seed", "13",
    )
    assert code == 3
    assert "decision mismatch rate" in out
    assert "boundary decisions" in out


@pytest.mark.parametrize("mode", ["exact", "sketch"])
def test_compare_rejects_fewer_than_one_trial(capsys, mode):
    # Zero trials would verify nothing, yet read "0 differences" and exit 0.
    for trials in ("0", "-2"):
        code, out, err = run_cli(
            capsys,
            "compare", "--gen", "10,3,0.3", "--trials", trials,
            "--delta", "1", "--d", "0", "--mode", mode,
        )
        assert (code, out) == (2, "")
        assert err == f"error: --trials must be at least 1, got {trials}\n"


def test_compare_needs_input_or_gen(capsys):
    code, _, err = run_cli(capsys, "compare", "--delta", "1", "--d", "0")
    assert code == 2
    assert "needs --input or --gen" in err


def test_compare_rejects_trials_with_input(capsys, wrap_file):
    # One input file is one instance; --trials counts generated ones.
    code, out, err = run_cli(
        capsys, "compare", "--input", wrap_file, "--trials", "5", "--delta", "1", "--d", "0"
    )
    assert (code, out) == (2, "")
    assert err == "error: --trials 5 needs --gen: --input is one instance\n"


def test_compare_rejects_input_with_gen(capsys, tmp_path):
    # Rejected before either is read, so a missing input file does not matter.
    code, out, err = run_cli(
        capsys, "compare", "--input", str(tmp_path / "absent.tel"), "--gen", "10,3,0.3",
        "--delta", "1", "--d", "0",
    )
    assert (code, out) == (2, "")
    assert err == "error: compare takes --input or --gen, not both\n"


def test_gen_triangle(capsys):
    code, out, _ = run_cli(capsys, "gen", "--n", "3", "--p", "1", "--prob", "1.0")
    assert code == 0
    g = parse_tel(out)
    assert g.edges(0) == frozenset({(0, 1), (0, 2), (1, 2)})


def test_gen_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.tel", tmp_path / "b.tel"
    for target in (a, b):
        code = main(
            ["gen", "--n", "12", "--p", "4", "--prob", "0.3", "--seed", "9", "--out", str(target)]
        )
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_gen_plant_verified(capsys, tmp_path):
    target = tmp_path / "planted.tel"
    code, _, err = run_cli(
        capsys,
        "gen", "--n", "10", "--p", "4", "--prob", "0.3", "--seed", "7",
        "--plant", "0,1,2,3,0", "--verify", "--out", str(target),
    )
    assert code == 0
    assert "plant verified" in err
    parse_tel(target.read_text())


def test_gen_verify_needs_plant(capsys):
    code, out, err = run_cli(
        capsys, "gen", "--n", "10", "--p", "4", "--prob", "0.3", "--seed", "7", "--verify"
    )
    assert (code, out) == (2, "")
    assert err == "error: --verify needs --plant: there is nothing to verify\n"


def test_gen_infeasible_plant(capsys):
    code, _, err = run_cli(
        capsys, "gen", "--n", "2", "--p", "1", "--prob", "0.0", "--plant", "0,1,0,1,0"
    )
    assert code == 2
    assert "common neighbour" in err


# Stdout SHA-256 of four `gen --plant` runs.  Together they take every edit
# the planter makes: completing a one-sided edge, closing further one-sided
# edges, giving u an untouched node, taking a common neighbour from v, and
# joining a fresh node to both sides of a pair with no edge.
PLANT_GOLDEN = [
    ("30,4,0.08,4", "0,1,3,2,2", "e0815144f9c28b009e69fd6ba6ae6a5c569b68766256927684bbd7cc32323d62"),
    ("30,4,0.08,4", "0,1,3,2,6", "82ec0cbfaba17f4bf67ba4c52cca997464bf739ff3bc4bf299ea5c38feb05c73"),
    ("8,2,1.0,1", "0,1,1,2,3", "f0f1ff42dcf4420afabf4aad350669c03e9b10c1cfd58c52fb14d52c0461aa1a"),
    ("12,3,0.0,2", "2,5,0,3,0", "38539b5b0798814a1863e275b25dd4bd273e88185041bbe4f4d648aceca4176c"),
]


@pytest.mark.parametrize(
    "graph, plant, digest", PLANT_GOLDEN, ids=["narrow", "widen", "drop", "fresh"]
)
def test_planted_graphs_match_golden_hashes(capsys, graph, plant, digest):
    n, p, prob, seed = graph.split(",")
    code, out, err = run_cli(
        capsys, "gen", "--n", n, "--p", p, "--prob", prob, "--seed", seed, "--plant", plant
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Stdout SHA-256 of each document on a generated instance.  "sparse" has 30
# nodes, p=4, maximum degree 7 and 26 windows at d=3; at k=4 its sketch compare
# has full sketches, mismatches and exit code 3.  "dense" has maximum degree 17
# and a planted 0-twin pair, adjacent at t=0, at the tightest band d=0, where
# most forwarded entries lie outside the exact route's degree band.  At k = 4
# and k = 2 most sketches of both are full, so their sketch runs pin the
# full-sketch twin test.  A change meant only for speed must leave every hash
# as it is.
GOLDEN_INSTANCES = {
    "sparse": (("--n", "30", "--p", "4", "--prob", "0.08", "--seed", "4"), "3"),
    "dense": (
        ("--n", "30", "--p", "4", "--prob", "0.3", "--seed", "4", "--plant", "0,1,0,3,0"), "0"
    ),
}
GOLDEN = [
    ("sparse", ("run", "--stats"), 0,
     "750e3d73d03d5814ff149a6beaa35168e4fbae8b8f55403b84df7fc30a073a9b"),
    ("sparse", ("run", "--stats", "--mode", "sketch"), 0,
     "e5179212a30ecb9d3c86c667651a7fdefcf7b1bcfb19afc1d51ba3837d8d3555"),
    ("sparse", ("oracle", "--stats"), 0,
     "dcf725f55fd9465b9202dc2cef79d48b2a619e078f09a5504b8b6467e0c98418"),
    ("sparse", ("compare", "--mode", "sketch", "--k", "4"), 3,
     "f47b7e1517c8e40c9f86fa8bfc2e894631804e680d72aa9631e30ac165cc1e54"),
    ("dense", ("run", "--stats"), 0,
     "9ee804843bd5a67a9ec5ff9b8b183cf9e1fd2e288f58919c7fab26da2a945d9a"),
    ("sparse", ("run", "--stats", "--mode", "sketch", "--k", "4"), 0,
     "a94bed70df1eca7551db0953732b350875929d9765fa251dd1eeb3cd076b4dc1"),
    ("sparse", ("run", "--stats", "--mode", "sketch", "--k", "2"), 0,
     "604fd9c84dc9711cc2b65da66e0752cea5fb5bb470b5ba8e3eb50da1ff6f2dc9"),
    ("dense", ("run", "--stats", "--mode", "sketch", "--k", "4"), 0,
     "33e55611d482d7221f97b55fa36d62cd948178b3a74a14146912b2eadd2ecaf5"),
    ("dense", ("run", "--stats", "--mode", "sketch", "--k", "2"), 0,
     "78d0d14ff08ab131be88f3b4bd883feaf52de86493df2112c32f6bb33fbe78a5"),
]


@pytest.mark.parametrize(
    "instance, command, exit_code, digest",
    GOLDEN,
    ids=[
        "run", "run-sketch", "oracle", "compare-k4", "run-dense-d0",
        "run-sketch-k4", "run-sketch-k2", "run-dense-sketch-k4", "run-dense-sketch-k2",
    ],
)
def test_documents_match_golden_hashes(capsys, tmp_path, instance, command, exit_code, digest):
    gen_flags, d = GOLDEN_INSTANCES[instance]
    path = tmp_path / "golden.tel"
    assert main(["gen", *gen_flags, "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, *command, "--input", str(path), "--delta", "2", "--d", d)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
