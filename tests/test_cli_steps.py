"""The CLI as a user runs it: one subprocess per row, on a bare interpreter.

Each row runs ``python -S`` with only the package's source on the path, so
site-packages (numpy, pytest, hypothesis) cannot be imported: the package
must run on a bare interpreter.  A row's timeout is the cost bound of its
command, its exit code is asserted, and its pins must appear in its stdout or
stderr.  Each child's address space is capped, so that a command that
regresses to a per-node or per-round allocation fails fast instead of using
up the machine's memory.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import tvtwins
from tvtwins.cli import main

SRC = str(Path(tvtwins.__file__).resolve().parents[1])
BIG = "1000000000000000000"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))


def bare(cwd, *args, timeout=None) -> subprocess.CompletedProcess:
    """Run ``python -S *args`` in ``cwd`` with the package's source as the only path entry."""
    return subprocess.run(
        [sys.executable, "-S", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_cap_address_space,
    )


def tv(command: str) -> tuple[str, ...]:
    return ("-m", "tvtwins", *command.split())


# Files written once per module.  wedge.tel: one wedge 0-1-2 among many
# isolated nodes.  matching.tel: a perfect matching at t=0 only, so every node
# has a state yet acts in two of the 2p rounds.  long-matching.tel: the same
# at p=100000 and n=800, so reading every node's p rounds costs 8*10^7 steps.
# ring.tel: a 2-regular ring, every degree equal, so at d=0 the degree band
# holds all 2*10^8 node pairs against 80,000 wedges.  always.tel: nodes 0 and
# 1 share node 2 in every round.  large.tel: 200,000 edge lines.  The next
# four hold one edge under a header past the limits of graph.MAX_PERIOD and
# graph.MAX_NODES.  not-utf8.tel has a byte that is not UTF-8 on line 3.
FILES = {
    "wedge.tel": "p=50 n=20000\n0 0 1\n0 1 2\n",
    "matching.tel": "p=50 n=20000\n" + "".join(f"0 {v} {v + 1}\n" for v in range(0, 20000, 2)),
    "long-matching.tel": "p=100000 n=800\n" + "".join(f"0 {v} {v + 1}\n" for v in range(0, 800, 2)),
    "ring.tel": "p=1 n=20000\n" + "".join(f"0 {v} {(v + 1) % 20000}\n" for v in range(20000)),
    "always.tel": "p=4 n=4\n" + "".join(f"{t} {u} 2\n" for t in range(4) for u in (0, 1)),
    "large.tel": "p=20 n=20000\n"
    + "".join(f"{t} {v} {v + 1}\n" for t in range(20) for v in range(0, 20000, 2)),
    "long-period.tel": "p=100000000 n=2\n0 0 1\n",
    "many-nodes.tel": "p=1 n=4000000\n0 0 1\n",
    "huge-n.tel": "p=1 n=1000000000000\n0 0 1\n",
    "period-2e6.tel": "p=2000000 n=4\n0 0 1\n",
    "not-utf8.tel": b"p=2 n=3\n0 0 1\n1 1 \xff2\n",
}
# Files made by `gen`; a --verify plant that fails exits 3 and fails the fixture.
# prefix.tel has degrees near 20, above the oracle's prefixes of d + 2 and
# d // 2 + 2 neighbours, and a pair (0, 1) that differs by exactly 3 on
# rounds 0-2.  k20plant.tel is the k = 20 family with a planted 0-twin pair
# (0, 1) on rounds 0-3.  planted.tel has a planted 0-twin pair, adjacent and
# of equal degree at t=0.
GENERATED = {
    "bare.tel": "gen --n 12 --p 4 --prob 0.3 --seed 7",
    "prefix.tel": "gen --n 40 --p 6 --prob 0.5 --seed 1 --plant 0,1,0,3,3 --verify",
    "k20plant.tel": "gen --n 50 --p 12 --prob 0.53 --seed 1 --plant 0,1,0,4,0 --verify",
    "planted.tel": "gen --n 30 --p 4 --prob 0.3 --seed 4 --plant 0,1,0,3,0",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_steps")
    for name, text in FILES.items():
        (path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    for name, command in GENERATED.items():
        child = bare(path, *tv(f"{command} --out {name}"))
        assert child.returncode == 0, child.stderr
    return path


class Step(NamedTuple):
    id: str
    args: tuple[str, ...]
    timeout: float | None = None
    code: int = 0
    out: tuple[str, ...] = ()
    err: tuple[str, ...] = ()


# Node 0's entry as the document prints it, two levels deep: one window, peer 1 from start 0.
NODE0_PEER1 = json.dumps({"node": 0, "twins": [{"peer": 1, "start": 0}]}, indent=2).replace(
    "\n", "\n    "
)
PARSE = "import sys; from tvtwins import parse_tel; print(parse_tel(open(sys.argv[1]).read()))"
DENSE50 = "compare --gen 50,12,0.53 --trials 2 --seed 1"
SKETCH_K20 = "--mode sketch --k 20 --epsilon 0.5 --nu 0.3 --delta 4 --d 2"


def _hostile(name: str, header_fault: str) -> list[Step]:
    return [
        Step(f"{name}-{command}", tv(f"{command} --input {name}.tel --delta 1 --d 0"), 5, 2,
             err=(f"error: line 1: {header_fault}",))
        for command in ("run", "oracle")
    ]


# compare exits 3 on any window difference, or in sketch mode on a mismatch
# rate above nu, so each compare row that expects 0 checks the routes agree.
STEPS = [
    # The protocol, the oracle and the sketch audit must cost what the edges
    # cost, not one step per node pair or per node and round.
    Step("wedge-run", tv("run --input wedge.tel --delta 1 --d 0"), 5),
    Step("wedge-oracle", tv("oracle --input wedge.tel --delta 1 --d 0"), 60),
    # Windows are read from each node's verdicts, so widening them to delta 2
    # must not cost a scan per node and round.
    Step("wedge-compare-delta2", tv("compare --input wedge.tel --delta 2 --d 0"), 10),
    Step("wedge-compare-delta2-sketch",
         tv("compare --input wedge.tel --delta 2 --d 0 --mode sketch"), 10),
    Step("matching-run", tv("run --input matching.tel --delta 1 --d 0"), 5),
    Step("matching-run-sketch", tv("run --input matching.tel --delta 1 --d 0 --mode sketch"), 5),
    Step("matching-compare", tv("compare --input matching.tel --delta 1 --d 0"), 10),
    # Each node's verdicts are read only at its rounds with an edge, in the
    # protocol's windows and in the sketch audit alike.
    Step("long-matching-compare", tv("compare --input long-matching.tel --delta 1 --d 0"), 5),
    Step("long-matching-compare-sketch",
         tv("compare --input long-matching.tel --delta 1 --d 0 --mode sketch"), 5),
    # The oracle's prefix filter meets a pair only through a shared
    # neighbour, so the ring must cost what its wedges cost.
    Step("ring-oracle", tv("oracle --input ring.tel --delta 1 --d 0"), 5),
    Step("ring-compare", tv("compare --input ring.tel --delta 1 --d 0"), 10),
    Step("ring-compare-sketch", tv("compare --input ring.tel --delta 1 --d 0 --mode sketch"), 10),
    # The prefix filter rejects pairs before the set test; at d=3 the oracle
    # reports the planted pair's window from start 0.
    *(Step(f"prefix-compare-d{d}", tv(f"compare --input prefix.tel --delta 1 --d {d}"), 30)
      for d in (2, 3, 4)),
    Step("prefix-oracle", tv("oracle --input prefix.tel --delta 3 --d 3"), 30, out=(NODE0_PEER1,)),
    # Dense enough that most sketch pairs are under-full and decided exactly.
    Step("gen100-compare-sketch",
         tv("compare --gen 100,8,0.14 --trials 3 --seed 1 --mode sketch --delta 3 --d 1"), 60),
    # Degrees above k: full sketches, the twin test's size filter and the
    # audit of every decision against the oracle's verdicts, which finds none
    # of the 29400 decisions flipped.
    Step("gen50-compare-sketch-k20", tv(f"{DENSE50} {SKETCH_K20}"), 60, out=(
        "decision mismatch rate: 0.000000 (0 of 29400)",
        "boundary decisions: 0 of 0 mismatches",
    )),
    # The threshold filter rejects every full-sketch pair of the run above;
    # at k = 2 it passes nearly all of them to the estimator, which calls
    # them twins.  The pins hold those verdicts, the windows read from them
    # and the audit's three counts.
    Step("gen50-compare-sketch-k2",
         tv(f"{DENSE50} --mode sketch --k 2 --epsilon 0.5 --nu 0.6 --delta 4 --d 2"), 60, out=(
             "decision mismatch rate: 0.519286 (15267 of 29400)",
             "4150 window differences / 2 trials",
             "boundary decisions: 15267 of 15267 mismatches",
         )),
    # The planted pair's near pairs pass the threshold filter to the
    # estimator, which misjudges one decision near the threshold, moving two
    # nodes' windows.
    Step("k20plant-compare-sketch", tv(f"compare --input k20plant.tel {SKETCH_K20}"), 60, out=(
        "2 window differences / 1 trials",
        "decision mismatch rate: 0.000068 (1 of 14700)",
        "boundary decisions: 1 of 1 mismatches",
    )),
    # Exact mode counts only entries whose degree lies within d of the node's
    # own, d=0 being the tightest band.  These families have no window, so
    # they show that the filter adds no twin; the planted pair shows that it
    # drops none.
    Step("gen100-compare", tv("compare --gen 100,8,0.14 --trials 3 --seed 1 --delta 3 --d 1"), 30),
    Step("gen50-compare-d0", tv(f"{DENSE50} --delta 4 --d 0"), 30),
    Step("gen50-compare-d2", tv(f"{DENSE50} --delta 4 --d 2"), 30),
    Step("planted-compare", tv("compare --input planted.tel --delta 2 --d 0"), 30),
    # Every delta >= p gives the windows of delta = p, at a cost that does
    # not grow with delta.
    Step("always-compare-big-delta", tv(f"compare --input always.tel --delta {BIG} --d 0"), 5),
    Step("always-compare-big-delta-sketch",
         tv(f"compare --input always.tel --delta {BIG} --d 0 --mode sketch"), 5),
    Step("always-oracle-big-delta", tv(f"oracle --input always.tel --delta {BIG} --d 0"), 5),
    # A huge d: both degree bands are two bounds, never a range over d, so
    # every pair with a common neighbour is decided at the cost of a small d.
    Step("gen60-compare-big-d", tv(f"compare --gen 60,4,0.3 --seed 1 --delta 2 --d {BIG}"), 30),
    Step("gen60-compare-big-d-sketch",
         tv(f"compare --gen 60,4,0.3 --seed 1 --delta 2 --d {BIG} --mode sketch"), 30),
    # A per-line cost that grows with the file fails the timeout.
    Step("parse-200k-lines", ("-c", PARSE, "large.tel"), 10,
         out=("TemporalGraph(p=20, n=20000, nodes=20000, temporal_edges=200000)\n",)),
    # A header past the limits fails at once, before any per-round or
    # per-node table is allocated.
    *_hostile("long-period", "period 100000000 is above the limit 100000"),
    *_hostile("many-nodes", "node count 4000000 is above the limit 131072"),
    *_hostile("huge-n", "node count 1000000000000 is above the limit 131072"),
    *_hostile("period-2e6", "period 2000000 is above the limit 100000"),
    # Undecodable bytes fail at their line, like any other fault of the file.
    Step("not-utf8-run", tv("run --input not-utf8.tel --delta 1 --d 0"), 5, 2,
         err=("error: line 3: byte 0xff is not UTF-8",)),
    Step("gen-many-nodes", tv("gen --n 1000000000 --p 1 --prob 0"), 5, 2,
         err=("error: node count 1000000000 is above the limit 131072",)),
    Step("gen-long-period", tv("gen --n 4 --p 1000000000 --prob 0"), 5, 2,
         err=("error: period 1000000000 is above the limit 100000",)),
    # At probability 0 the generator makes no draw, so a graph at the node
    # limit costs what its edges cost, not one draw per node pair.
    Step("gen-prob0-node-limit", tv("gen --n 131072 --p 1 --prob 0"), 5,
         out=("p=1 n=131072\n",)),
]


@pytest.mark.parametrize("step", STEPS, ids=[step.id for step in STEPS])
def test_cli_step(workdir, step):
    child = bare(workdir, *step.args, timeout=step.timeout)
    assert child.returncode == step.code, child.stderr
    for pin in step.out:
        assert pin in child.stdout
    for pin in step.err:
        assert pin in child.stderr


def test_bare_interpreter_cannot_import_numpy(workdir):
    child = bare(workdir, "-c", "import numpy")
    assert child.returncode == 1
    assert "ModuleNotFoundError: No module named 'numpy'" in child.stderr


# Sketch mode with --stats reaches every module of the package.
SMOKE = [
    "run --input bare.tel --delta 2 --d 1 --stats",
    "run --input bare.tel --delta 2 --d 1 --mode sketch --stats",
    "compare --input bare.tel --delta 2 --d 1",
]


@pytest.mark.parametrize("command", SMOKE, ids=["run", "run-sketch", "compare"])
def test_bare_interpreter_prints_the_in_process_output(workdir, capsys, monkeypatch, command):
    child = bare(workdir, *tv(command))
    monkeypatch.chdir(workdir)
    code = main(command.split())
    assert (child.returncode, child.stdout, child.stderr) == (code, capsys.readouterr().out, "")
    assert code == 0


def test_delta_beyond_the_period_prints_the_period_document(workdir):
    # Equal to the delta = p document but for params.delta.
    docs = []
    for delta, timeout in (("4", None), (BIG, 5)):
        child = bare(workdir, *tv(f"run --input always.tel --delta {delta} --d 0"), timeout=timeout)
        assert child.returncode == 0, child.stderr
        doc = json.loads(child.stdout)
        doc["params"].pop("delta")
        docs.append(doc)
    assert docs[0] == docs[1]
