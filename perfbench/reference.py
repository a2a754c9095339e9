"""Independent reference for the benchmark's correctness checks.

A third route to the twin windows, separate from the oracle's neighbour sets
and the protocol's message counting: per-round adjacency matrices, common
neighbour counts from A.A, outside differences from the degrees, A and that
count, and windows from a circular AND over ``delta`` rounds.  It also gives
the closed forms of the simulator's message accounting.  Nothing here imports
tvtwins.
"""

import numpy as np


class Reference:
    def __init__(self, adj: np.ndarray, delta: int, d: int):
        p, n, _ = adj.shape
        self.degrees = adj.sum(axis=2, dtype=np.int64)  # (p, n)
        self.twin = np.zeros((p, n, n), dtype=bool)  # symmetric per round
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        self.candidate_pairs = 0
        for t in range(p):  # one round at a time keeps the peak memory small
            a = adj[t].astype(np.float32)
            # Counts stay far below 2**24, so float32 products are exact.
            common = np.rint(a @ a).astype(np.int32)
            deg = self.degrees[t].astype(np.int32)
            diff = deg[:, None] + deg[None, :] - 2 * adj[t] - 2 * common
            has_common = common >= 1
            np.fill_diagonal(has_common, False)
            self.twin[t] = has_common & (diff <= d)
            self.candidate_pairs += int((has_common & upper).sum())

        window = np.ones_like(self.twin)
        for j in range(delta):
            window &= np.roll(self.twin, -j, axis=0)  # window[s] needs twin[s + j mod p]
        self.p, self.n = p, n
        self.window_count = int(window.sum())
        starts, us, vs = np.nonzero(window)
        self.windows = set(zip(us.tolist(), vs.tolist(), starts.tolist()))
        self.edges_per_round = (self.degrees.sum(axis=1) // 2).tolist()
        self.max_degree = int(self.degrees.max())

    def mismatches(self, twins_at: dict) -> int:
        """Pair-rounds (u < v) where a run's per-round verdicts (node -> list of
        peer sets, one per round) disagree with the reference."""
        got = np.zeros_like(self.twin)
        for u, rounds in twins_at.items():
            for t, peers in enumerate(rounds):
                if peers:
                    got[t, u, list(peers)] = True
        upper = np.triu(np.ones((self.n, self.n), dtype=bool), k=1)
        return int(((got != self.twin) & upper).sum())

    def expected_stats(self, mode: str, k: int | None = None) -> dict:
        """Closed-form message accounting of one 2p-round run."""
        width = (self.n - 1).bit_length()
        deg = self.degrees
        active = deg > 0
        edges = int(deg.sum()) // 2
        stats = {
            "deliveries": 4 * edges,
            "messages": 2 * int(active.sum()),
            "rounds_executed": 2 * self.p,
        }
        if mode == "exact":
            stats["total_bits"] = int((2 * width * (1 + deg) * active).sum())
            stats["max_phase2_bits"] = self.max_degree * 2 * width
        else:
            # Phase 1: 2W per active node.  Phase 2: each node x named by one
            # of its neighbours costs 3W + 16 + 64 * (live sketch values).
            live = np.minimum(deg, k)
            stats["total_bits"] = int(
                2 * width * active.sum() + (deg * (3 * width + 16 + 64 * live)).sum()
            )
        return stats


def window_set(windows: dict) -> set:
    """Flatten a node -> {(peer, start)} mapping into {(node, peer, start)}."""
    return {(u, w[0], w[1]) for u, ws in windows.items() for w in ws}


def check_windows(expected: set, windows: dict) -> str | None:
    """None when ``windows`` matches the reference, else a short description."""
    got = window_set(windows)
    if got == expected:
        return None
    missing, extra = sorted(expected - got), sorted(got - expected)
    return f"{len(missing)} missing {missing[:3]}, {len(extra)} extra {extra[:3]}"
