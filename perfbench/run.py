"""End-to-end and per-layer benchmark of tvtwins.

    python3 perfbench/run.py --workload dense-lossless --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory.  One pass performs six operations, each the library calls a CLI
command makes after start-up: parse the workload's .tel text (``setup_s``),
generate and serialize a random instance (``gen_s``), run the protocol in
exact and in sketch mode and build the result document (``run_exact_s``,
``run_sketch_s``), compute the oracle's windows and document (``oracle_s``) and
compare the sketch run with the oracle (``compare_sketch_s``).  Passes repeat
until the next one would end after ``--seconds``; short operations are
repeated within a pass.

The host's speed changes by up to 70% for stretches of a second to minutes,
on both cores at once.  So every call is bracketed by ``probe_seconds()``, a
fixed loop of the benchmark's own, and scaled to the host's unloaded speed:
``wall * PROBE_UNLOADED_S / probe``, with ``probe`` the mean of the two
brackets.  Each time metric is the median of its operation's scaled calls in
the run; standard error also shows the unscaled wall times.

Every output is checked, outside the timed sections, against the benchmark's
own reference and the closed forms of the message accounting; an operation
with a failed check counts as failed.  With ``--trace 1`` the per-layer
metrics are printed instead, from a traced run of the same passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and checks go
to standard error.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import Reference, check_windows
from tracer import Tracer
from workload import WORKLOADS, generate, to_tel

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2

# probe_seconds() at the host's unloaded speed: the 1st percentile of 13,559
# probes taken over 30 s on a 2-core Intel Xeon VM with Python 3.11.7.
PROBE_UNLOADED_S = 1.45e-3

# Repetitions per pass of the operations that take well under a second.
REPS = {"setup_s": 4, "gen_s": 4, "run_exact_s": 2}


def probe_seconds() -> float:
    """Wall time of a fixed pure-Python workload of the benchmark's own: dict
    inserts, a set intersection and a sort.  It calls nothing of tvtwins, so
    a change to the program cannot change it; only the host's speed can."""
    start = time.perf_counter()
    for _ in range(3):
        table = {i * 7919 % 10007: i for i in range(3000)}
        set(table) & set(range(0, 10007, 3))
        sorted(table.values())
    return time.perf_counter() - start


def scaled_seconds(call: tuple[float, float]) -> float:
    """A call's wall time at the host's unloaded speed."""
    wall, probe = call
    return wall * PROBE_UNLOADED_S / probe


def load_program():
    """Import tvtwins from the checkout's sources, never from elsewhere."""
    package = ROOT / "src" / "tvtwins"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: tvtwins sources not found at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import tvtwins
    from tvtwins import cli, graph, oracle, protocol, simulator, sketch

    if Path(tvtwins.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported tvtwins from {tvtwins.__file__}, not {package}")
    return graph, simulator, protocol, sketch, oracle, cli


def doc_windows(doc: dict) -> dict:
    return {e["node"]: {(t["peer"], t["start"]) for t in e["twins"]} for e in doc["windows"]}


class Bench:
    """One workload instance: inputs, reference, and the six operations."""

    def __init__(self, modules, workload, seed: int):
        self.graph_mod, self.simulator, _, sketch, self.oracle, self.cli = modules
        self.w, self.seed = workload, seed
        adj = generate(workload, seed)
        self.text = to_tel(adj)
        self.edges = [
            {(u, v) for u, v in zip(*(x.tolist() for x in adj[t].nonzero())) if u < v}
            for t in range(workload.p)
        ]
        self.ref = Reference(adj, workload.delta, workload.d)
        self.params = self.graph_mod.ProblemParams(workload.delta, workload.d)
        self.k = sketch.calibrated_capacity(workload.epsilon, workload.nu)
        sp = sketch.SketchParams(self.k, workload.epsilon, workload.nu, hash_seed=seed)
        RunConfig = self.simulator.RunConfig
        self.exact = RunConfig(self.params, mode="exact", seed=seed)
        self.sketch = RunConfig(self.params, mode="sketch", sketch_params=sp, seed=seed)
        self.hashes: dict[str, str] = {}
        self.graph = None
        self.sketch_mismatches = None
        # (metric, repetitions per pass, timed call, check of its output)
        self.ops = [
            (name, REPS.get(name, 1), getattr(self, f"op_{name[:-2]}"), getattr(self, f"check_{name[:-2]}"))
            for name in ("setup_s", "gen_s", "run_exact_s", "run_sketch_s", "oracle_s", "compare_sketch_s")
        ]

    # -- timed operations: only library calls ---------------------------------

    def op_setup(self):
        return self.graph_mod.parse_tel(self.text)

    def op_gen(self):
        g = self.graph_mod.generate_random(self.w.n, self.w.p, self.w.edge_prob, seed=self.seed)
        return g, self.graph_mod.serialize_tel(g)

    def _run(self, config):
        # Simulation(...).run() is the body of simulator.run; the per-node
        # states are kept for the sketch audit check.
        sim = self.simulator.Simulation(self.graph, config)
        result = sim.run()
        doc = self.cli.build_result_document(
            self.graph, self.params, config.mode, self.seed, result.windows,
            result.stats.as_dict(), config.sketch_params,
        )
        return sim, result, self.cli.document_json(doc)

    def op_run_exact(self):
        return self._run(self.exact)

    def op_run_sketch(self):
        return self._run(self.sketch)

    def op_oracle(self):
        g = self.graph
        windows = self.oracle.all_windows(g, self.params)
        width = self.graph_mod.id_width(g.n)
        digest = {  # what `tvtwins oracle --stats` reports
            "n": g.n, "max_degree": g.max_degree(), "id_width": width,
            "phase2_bound_bits": g.max_degree() * 2 * width,
        }
        doc = self.cli.build_result_document(g, self.params, "exact", self.seed, windows, digest)
        return self.cli.document_json(doc)

    def op_compare_sketch(self):
        return self.simulator.compare_with_oracle(self.graph, self.sketch)

    # -- checks: each returns a list of problems --------------------------------

    def _same_bytes(self, name: str, text: str) -> list[str]:
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.hashes.setdefault(name, digest)
        return [] if digest == first else [f"{name} document differs between runs"]

    def check_setup(self, g) -> list[str]:
        w = self.w
        if (g.p, g.n, g.nodes) != (w.p, w.n, frozenset(range(w.n))):
            return ["parsed header or node set differs from the input"]
        if [set(g.edges(t)) for t in range(w.p)] != self.edges:
            return ["parsed edges differ from the input"]
        self.graph = g
        return []

    def check_gen(self, out) -> list[str]:
        g, text = out
        lines = text.splitlines()
        edges = [set() for _ in range(g.p)]
        for line in lines[1:]:
            t, u, v = map(int, line.split())
            edges[t].add((u, v))
        problems = self._same_bytes("gen", text)
        if lines[0] != f"p={self.w.p} n={self.w.n}" or edges != [set(g.edges(t)) for t in range(g.p)]:
            problems.append("serialized instance differs from the generated graph")
        return problems

    def _check_run(self, out, mode: str) -> list[str]:
        _, result, text = out
        problems = self._same_bytes(mode, text)
        doc = json.loads(text)
        stats = doc["stats"]
        expected = self.ref.expected_stats(mode, self.k)
        got = {"rounds_executed": result.rounds_executed, **stats}
        problems += [
            f"{mode} {key} = {got[key]}, closed form {value}"
            for key, value in expected.items() if got[key] != value
        ]
        if mode == "exact" and stats["max_phase2_bits"] != stats["phase2_bound_bits"]:
            problems.append("exact max_phase2_bits differs from phase2_bound_bits")
        if mode == "exact" or self.ref.max_degree < self.k:  # sketches under-full: exact
            bad = check_windows(self.ref.windows, doc_windows(doc))
            if bad:
                problems.append(f"{mode} windows: {bad}")
        return problems

    def check_run_exact(self, out) -> list[str]:
        return self._check_run(out, "exact")

    def check_run_sketch(self, out) -> list[str]:
        sim = out[0]
        self.sketch_mismatches = self.ref.mismatches(
            {v: state.twins_at for v, state in sim.states.items()}
        )
        return self._check_run(out, "sketch")

    def check_oracle(self, text) -> list[str]:
        problems = self._same_bytes("oracle", text)
        bad = check_windows(self.ref.windows, doc_windows(json.loads(text)))
        return problems + ([f"oracle windows: {bad}"] if bad else [])

    def check_compare_sketch(self, report) -> list[str]:
        problems = []
        if report.rounds_executed != 2 * self.w.p:
            problems.append(f"compare ran {report.rounds_executed} rounds")
        if report.decisions != self.ref.candidate_pairs:
            problems.append(
                f"audit decisions {report.decisions}, reference {self.ref.candidate_pairs}"
            )
        if report.mismatched_decisions != self.sketch_mismatches:
            problems.append(
                f"audit mismatches {report.mismatched_decisions}, "
                f"sketch run against reference {self.sketch_mismatches}"
            )
        if report.mismatch_rate > self.w.nu:
            problems.append(f"mismatch rate {report.mismatch_rate} above nu {self.w.nu}")
        if self.ref.max_degree < self.k and not (report.equal and report.mismatched_decisions == 0):
            problems.append("under-full sketches disagree with the oracle")
        return problems

    # -- passes --------------------------------------------------------------

    def run_pass(self, on_op=None):
        """Perform every operation once (short ones ``reps`` times).

        Returns (calls, failed).  ``calls[name]`` holds one pair per call, a
        call that raised included: its wall seconds and the mean of the
        ``probe_seconds()`` taken right before and right after it.  ``failed``
        is the number of operations that raised or failed a check.
        ``on_op(name, reps)`` is called after each operation.
        """
        calls, failed = {}, 0
        clock = time.perf_counter
        for name, reps, op, check in self.ops:
            times, problems = [], []
            calls[name] = times
            try:
                for _ in range(reps):
                    gc.collect()  # every call starts from the same collector state
                    before = probe_seconds()
                    start = clock()
                    try:
                        out = op()
                    finally:
                        elapsed = clock() - start
                        times.append((elapsed, (before + probe_seconds()) / 2))
                    problems += check(out)
                    del out
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                problems.append(f"{type(exc).__name__}: {exc}")
            if problems:
                failed += 1
                print(f"FAILED {name}: {'; '.join(problems[:3])}", file=sys.stderr)
            if on_op is not None:
                on_op(name, reps)
        return calls, failed


def pass_seconds(calls: dict) -> float:
    """Scaled time of one pass with every operation counted once."""
    return sum(statistics.fmean(map(scaled_seconds, times)) for times in calls.values() if times)


def measure(bench: Bench, seconds: float, min_passes: int, on_op=None):
    """Passes until the next would end after ``seconds`` (at least ``min_passes``)."""
    passes, failed = [], 0
    start = time.perf_counter()
    while True:
        calls, bad = bench.run_pass(on_op)
        passes.append(calls)
        failed += bad
        print("pass", len(passes), json.dumps({k: [round(wall, 5) for wall, _ in v] for k, v in calls.items()}),
              file=sys.stderr)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = load_program()
    bench = Bench(modules, WORKLOADS[args.workload], args.seed)
    ref = bench.ref
    print(
        f"{args.workload} seed {args.seed}: {sum(ref.edges_per_round)} temporal edges, "
        f"max degree {ref.max_degree}, k {bench.k}, {ref.window_count} window entries, "
        f"{ref.candidate_pairs} pair-rounds with a common neighbour",
        file=sys.stderr,
    )

    if args.trace:
        metrics, attempted, failed = trace_run(bench, modules, args.seconds)
    else:
        passes, failed = measure(bench, args.seconds, MIN_PASSES)
        attempted = len(passes) * len(bench.ops)
        metrics = {}
        for name, _, _, _ in bench.ops:
            times = [t for calls in passes for t in calls[name]]
            walls = [wall for wall, _ in times]
            scaled = statistics.median(map(scaled_seconds, times))
            metrics[name] = {"value": scaled, "unit": "s"}
            print(f"{name}: {len(times)} calls, wall median {statistics.median(walls):.5f} s, "
                  f"fastest {min(walls):.5f} s, probe median "
                  f"{statistics.median(p for _, p in times) * 1e3:.3f} ms, scaled {scaled:.5f} s",
                  file=sys.stderr)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
        print(f"{len(passes)} passes; document sha256: {bench.hashes}", file=sys.stderr)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


LAYER_UNITS = {"_s": "s", "_bytes": "bytes", "_bits": "bits", "_yield": "ratio", ".overhead": "ratio"}


def trace_run(bench: Bench, modules, seconds: float):
    """One untraced pass as the baseline, then traced passes.

    Each per-layer value covers one pass with every operation counted once
    (repeated operations are divided by their repetitions); the reported value
    is the median over traced passes.
    """
    start = time.perf_counter()
    baseline, failed = bench.run_pass()
    tracer = Tracer(modules)
    current: dict[str, float] = {}
    layer_passes = []

    def on_op(name, reps):
        for key, value in tracer.layer_metrics().items():
            current[key] = current.get(key, 0) + value / reps
        tracer.reset()
        if name == bench.ops[-1][0]:
            layer_passes.append(dict(current))
            current.clear()

    tracer.install()
    try:
        passes, traced_failed = measure(bench, seconds - (time.perf_counter() - start), 1, on_op)
    finally:
        tracer.uninstall()

    for layers, calls in zip(layer_passes, passes):
        layers["graph.nodes"] = len(bench.graph.nodes)
        layers["graph.temporal_edges"] = sum(len(bench.graph.edges(t)) for t in range(bench.w.p))
        layers["protocol.twin_yield"] = layers["protocol.twin_decisions"] / layers["protocol.candidates"]
        layers["oracle.candidate_yield"] = (
            layers["oracle.candidate_pairs"] / layers["oracle.is_d_twin_calls"]
        )
        layers["trace.overhead"] = pass_seconds(calls) / pass_seconds(baseline)
    metrics = {}
    for key in layer_passes[0]:
        unit = next((u for suffix, u in LAYER_UNITS.items() if key.endswith(suffix)), "count")
        metrics[key] = {"value": statistics.median(p[key] for p in layer_passes), "unit": unit}
    attempted = (len(passes) + 1) * len(bench.ops)
    return metrics, attempted, failed + traced_failed


if __name__ == "__main__":
    sys.exit(main())
