"""Benchmark workloads and their seeded input generator.

The generator is the benchmark's own, independent of ``tvtwins.generate_random``,
so a change to the program's generator cannot change a workload.  Each round
is an Erdos-Renyi graph with the workload's mean degree.  On top of that,
``n // 20`` disjoint clone pairs are planted: for a run of ``delta`` or
``delta + 1`` consecutive rounds (mod p), node v takes node u's outside
neighbourhood and the edge between them is dropped, so the pair is a 0-twin
with at least one common neighbour on every round of the run.  The first
pair's run starts at round p - 1, so at least one planted window straddles the
period boundary.

Planting a later pair (a, b) keeps an earlier pair (u, v) twins: a is adjacent
to u iff it is adjacent to v, so b's new edges touch both or neither.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    salt: int  # mixed with --seed so workloads never share a random stream
    n: int
    p: int
    mean_degree: float
    delta: int
    d: int
    epsilon: float
    nu: float

    @property
    def edge_prob(self) -> float:
        return self.mean_degree / (self.n - 1)


# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-lossless", 1, n=100, p=8, mean_degree=14, delta=3, d=1, epsilon=0.2, nu=0.1),
        Workload("sparse-wide", 2, n=300, p=4, mean_degree=4, delta=2, d=1, epsilon=0.2, nu=0.1),
        Workload("lossy-long", 3, n=50, p=12, mean_degree=26, delta=4, d=2, epsilon=0.5, nu=0.3),
    )
}


def generate(workload: Workload, seed: int) -> np.ndarray:
    """Per-round boolean adjacency matrices, shape (p, n, n), from ``seed``."""
    n, p = workload.n, workload.p
    rng = np.random.default_rng([seed, workload.salt])
    adj = np.zeros((p, n, n), dtype=bool)
    for t in range(p):
        upper = np.triu(rng.random((n, n)) < workload.edge_prob, k=1)
        adj[t] = upper | upper.T

    order = rng.permutation(n)
    for i in range(n // 20):
        u, v = int(order[2 * i]), int(order[2 * i + 1])
        start = p - 1 if i == 0 else int(rng.integers(p))
        length = min(p, workload.delta + int(rng.integers(2)))
        for j in range(length):
            _clone(adj[(start + j) % p], u, v, rng)
    return adj


def _clone(a: np.ndarray, u: int, v: int, rng: np.random.Generator) -> None:
    a[u, v] = a[v, u] = False
    a[v, :] = a[:, v] = False
    outside = a[u].copy()
    if not outside.any():
        w = int(rng.choice([x for x in range(len(a)) if x != u and x != v]))
        a[u, w] = a[w, u] = True
        outside[w] = True
    a[v, outside] = True
    a[outside, v] = True


def to_tel(adj: np.ndarray) -> str:
    """Render adjacency matrices as .tel text, edges sorted by (t, u, v)."""
    p, n, _ = adj.shape
    lines = [f"p={p} n={n}"]
    for t in range(p):
        us, vs = np.nonzero(np.triu(adj[t], k=1))
        lines.extend(f"{t} {u} {v}" for u, v in zip(us.tolist(), vs.tolist()))
    return "\n".join(lines) + "\n"
