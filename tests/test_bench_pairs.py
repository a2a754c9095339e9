import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# Standard error of one perfbench/run.py run, abridged to one pass line.
SAMPLE = """\
dense-lossless seed 3: 5608 temporal edges, max degree 25, k 273, 14 window entries, 34059 pair-rounds with a common neighbour
pass 1 {"setup_s": [0.01817, 0.0171, 0.01708, 0.0094], "gen_s": [0.00838, 0.00855, 0.00939, 0.01415], "run_exact_s": [0.03966, 0.02308], "run_sketch_s": [0.03454], "oracle_s": [0.00828], "compare_sketch_s": [0.07371]}
setup_s: 12 calls, wall median 0.01476 s, fastest 0.00940 s, probe median 2.253 ms, scaled 0.00932 s
gen_s: 12 calls, wall median 0.00859 s, fastest 0.00811 s, probe median 1.748 ms, scaled 0.00732 s
run_exact_s: 6 calls, wall median 0.02393 s, fastest 0.02308 s, probe median 1.677 ms, scaled 0.02094 s
run_sketch_s: 3 calls, wall median 0.03544 s, fastest 0.03454 s, probe median 1.982 ms, scaled 0.03045 s
oracle_s: 3 calls, wall median 0.00828 s, fastest 0.00580 s, probe median 2.376 ms, scaled 0.00506 s
compare_sketch_s: 3 calls, wall median 0.07371 s, fastest 0.04831 s, probe median 2.077 ms, scaled 0.04857 s
3 passes; document sha256: {'gen': '793e0e6b', 'exact': 'e22b6c9f', 'sketch': 'fa6dbe40', 'oracle': 'dd422515'}
"""


def test_parse_stderr_reads_every_operation_and_the_hashes():
    parsed = bench_pairs.parse_stderr(SAMPLE)
    assert parsed["passes"] == 3
    assert parsed["sha256"] == {
        "gen": "793e0e6b", "exact": "e22b6c9f", "sketch": "fa6dbe40", "oracle": "dd422515"
    }
    assert list(parsed["ops"]) == [
        "setup_s", "gen_s", "run_exact_s", "run_sketch_s", "oracle_s", "compare_sketch_s"
    ]
    assert parsed["ops"]["run_sketch_s"] == {
        "calls": 3,
        "wall_median_s": 0.03544,
        "fastest_s": 0.03454,
        "probe_median_s": pytest.approx(1.982e-3),
        "scaled_s": 0.03045,
    }


@pytest.mark.parametrize("drop", ["scaled 0.0", "document sha256"])
def test_parse_stderr_refuses_a_run_without_its_figures(drop):
    # Without the operation lines or without the hashes, a run cannot be
    # compared; a changed line format must fail, not read as nothing.
    text = "\n".join(line for line in SAMPLE.splitlines() if drop not in line)
    with pytest.raises(ValueError, match="standard error"):
        bench_pairs.parse_stderr(text)


def test_summary_counts_the_pairs_the_change_won():
    def side(value):
        return {"metrics": {"run_sketch_s": value}, "ops": {}}

    pairs = [{"parent": side(p), "change": side(c)} for p, c in ((4, 3), (6, 3), (5, 5), (2, 4), (3, 1))]
    summary = bench_pairs.summarize(pairs, {})["run_sketch_s"]
    assert summary["parent"] == {"median": 4, "q1": 3, "q3": 5}
    assert summary["change"] == {"median": 3, "q1": 3, "q3": 4}
    assert (summary["change_wins"], summary["pairs"]) == (3, 5)
    assert summary["median_delta"] == pytest.approx(-0.25)


def test_summary_holds_each_median_against_its_bound():
    runs = {  # metric: (parent, change) per pair
        # Parent median 10, change median 11: +10%, parent spread 10%.
        "run_sketch_s": ((9, 10), (10, 11), (11, 12)),
        # +10% again, but with a parent spread of 1%, inside the 5% bound.
        "peak_rss_mb": ((9.9, 10.9), (10, 11), (10.1, 11.1)),
        "extra_s": ((9, 10), (10, 11), (11, 12)),
        # Parent spread 75%, wider than the bound: a +10% median is unresolved.
        "noisy_s": ((5, 6), (10, 11), (20, 21)),
        # The same spread, but every change run beat every parent run.
        "beaten_s": ((10, 1), (20, 2), (40, 3)),
    }
    pairs = [
        {side: {"metrics": {name: pair[i][j] for name, pair in runs.items()}, "ops": {}}
         for j, side in enumerate(("parent", "change"))}
        for i in range(3)
    ]
    bounds = {"run_sketch_s": 0.24, "peak_rss_mb": 0.05, "noisy_s": 0.24, "beaten_s": 0.24}
    summary = bench_pairs.summarize(pairs, bounds)
    verdicts = {name: (s["bound"], s["within_bound"]) for name, s in summary.items()}
    assert verdicts == {
        "run_sketch_s": (0.24, True),
        "peak_rss_mb": (0.05, False),
        "extra_s": (None, None),
        "noisy_s": (0.24, None),
        "beaten_s": (0.24, True),
    }
    assert summary["noisy_s"]["parent_iqr_share"] == pytest.approx(0.75)
    # The bounds a run uses are the repository's end-to-end ones.
    bounds = bench_pairs.end_to_end_bounds()
    assert set(bounds) >= {"run_sketch_s", "compare_sketch_s", "peak_rss_mb"}
    assert all(0 < bound < 1 for bound in bounds.values())
