"""Alternating parent/change runs of perfbench, summarized in one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload dense-lossless --seeds 2801-2810 --seconds 8 --out BENCH.json

Each revision of the repository holding this script is extracted with
``git archive`` into a temporary directory, and ``perfbench/run.py`` runs
there unchanged, one process per run, so each side benchmarks its own
sources.  For an uncommitted change, ``git stash create`` names a commit of
the working tree's tracked files without touching it.

Each seed is one pair: the parent and the change run the same workload, seed
and run length back to back, the parent first on even-numbered pairs and the
change first on odd-numbered ones.  The file records the machine, the Python
version, both revisions (with the tree IDs of ``src`` and ``perfbench``), and
for every run its scaled medians from run.py's last stdout line, and the call
counts, unscaled wall medians, probe medians and document SHA-256s parsed
from its standard error.  Per workload and metric it also gives both sides'
median and quartiles, the pairs the change won, the metric's regression
bound from the repository's ``BENCHMARK.json`` and whether the change's median
stays within it (unresolved when the parent's spread is wider than the
bound), and whether every pair's documents were equal.
"""

import argparse
import ast
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# "run_sketch_s: 3 calls, wall median 0.03544 s, fastest 0.03454 s,
#  probe median 1.982 ms, scaled 0.03045 s", on one line
_OP_LINE = re.compile(
    r"^(?P<name>\w+): (?P<calls>\d+) calls, wall median (?P<wall>[\d.]+) s, "
    r"fastest (?P<fastest>[\d.]+) s, probe median (?P<probe>[\d.]+) ms, "
    r"scaled (?P<scaled>[\d.]+) s$"
)
# "3 passes; document sha256: {'gen': '...', ...}"
_DOC_LINE = re.compile(r"^(?P<passes>\d+) passes; document sha256: (?P<hashes>\{.*\})$")


def parse_stderr(text: str) -> dict:
    """The per-operation lines and the document hashes that run.py writes to
    standard error: ``{"passes", "sha256", "ops": {name: {"calls",
    "wall_median_s", "fastest_s", "probe_median_s", "scaled_s"}}}``.
    Raises ``ValueError`` when either part is missing."""
    ops, hashes, passes = {}, None, None
    for line in text.splitlines():
        if m := _OP_LINE.match(line):
            ops[m["name"]] = {
                "calls": int(m["calls"]),
                "wall_median_s": float(m["wall"]),
                "fastest_s": float(m["fastest"]),
                "probe_median_s": float(m["probe"]) / 1e3,
                "scaled_s": float(m["scaled"]),
            }
        elif m := _DOC_LINE.match(line):
            passes, hashes = int(m["passes"]), ast.literal_eval(m["hashes"])
    if not ops or hashes is None:
        raise ValueError("no operation lines or no document hashes in run.py's standard error")
    return {"passes": passes, "sha256": hashes, "ops": ops}


def git(*args: str, text: bool = True):
    child = subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True, text=text)
    return child.stdout


def checkout(rev: str, into: Path) -> dict:
    """Extract ``rev`` into ``into`` and describe it."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    into.mkdir()
    archive = git("archive", commit, text=False)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return {
        "rev": rev,
        "commit": commit,
        "src_tree": git("rev-parse", f"{commit}:src").strip(),
        "perfbench_tree": git("rev-parse", f"{commit}:perfbench").strip(),
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(child.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        **parse_stderr(child.stderr),
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def end_to_end_bounds() -> dict:
    """Each end-to-end metric's regression bound in the repository's
    ``BENCHMARK.json``, a share of the parent's median."""
    config = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in config["end_to_end"]}


def summarize(pairs: list[dict], bounds: dict) -> dict:
    """Per metric: each side's median and quartiles, the change's wins (lower
    is better for every metric run.py reports), the relative change of the
    medians, and the metric's bound from ``bounds`` with ``within_bound``:
    whether the change's median is at most the parent's times 1 + bound.
    ``within_bound`` is None (unresolved) when the parent's quartile spread
    is wider than the bound, unless every change run beat every parent run;
    both are None for a metric without a bound.  Needs at least two pairs."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        a, b = quartiles(parent), quartiles(change)
        bound = bounds.get(name)
        spread = (a["q3"] - a["q1"]) / a["median"]
        unresolved = bound is None or (spread > bound and max(change) >= min(parent))
        summary[name] = {
            "parent": a,
            "change": b,
            "change_wins": sum(y < x for x, y in zip(parent, change)),
            "pairs": len(pairs),
            "median_delta": b["median"] / a["median"] - 1,
            "parent_iqr_share": spread,
            "bound": bound,
            "within_bound": None if unresolved else b["median"] <= a["median"] * (1 + bound),
        }
        if name in pairs[0]["parent"]["ops"]:
            for side in ("parent", "change"):
                ops = [p[side]["ops"][name] for p in pairs]
                for key in ("wall_median_s", "probe_median_s"):
                    summary[name][side][key] = statistics.median(o[key] for o in ops)
    return summary


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            names = (line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
            model = next(names, None)
    except OSError:  # no /proc: not Linux
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu_model": model, "cpu_count": os.cpu_count()}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="FIRST-LAST, one pair per seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bounds = end_to_end_bounds()
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: Path(tmp) / side for side in ("parent", "change")}
        revisions = {side: checkout(getattr(args, side), root) for side, root in roots.items()}
        workloads = {}
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(roots[side], workload, seed, args.seconds)
                pair["documents_equal"] = pair["parent"]["sha256"] == pair["change"]["sha256"]
                pairs.append(pair)
                before, after = pair["parent"]["metrics"], pair["change"]["metrics"]
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{name} {before[name]:.5g} -> {after[name]:.5g}" for name in before
                ), file=sys.stderr)
            workloads[workload] = {
                "summary": summarize(pairs, bounds),
                "documents_equal": all(p["documents_equal"] for p in pairs),
                "failed": sum(p[side]["failed"] for p in pairs for side in ("parent", "change")),
                "pairs": pairs,
            }

    report = {
        "machine": machine(),
        "python": sys.version,
        "revisions": revisions,
        "settings": {"seconds": args.seconds, "seeds": args.seeds,
                     "order": "parent first on even-numbered pairs, change first on odd"},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
