"""Twin-window detection in periodic time-varying graphs.

Library, synchronous-round simulator and CLI for finding pairs of nodes whose
outside neighbourhoods intersect and differ by at most d elements for delta
consecutive rounds: an exact two-phase message-passing protocol finishing in
2p rounds, a randomized sketch variant whose sketch per entry costs at most
16 + W + 64k bits for capacity k and W-bit IDs (a message still carries one
entry per neighbour of its sender, so its size grows with degree), and a
brute-force reference for ground truth.
"""

__version__ = "0.1.0"

from .graph import (
    ProblemParams,
    TelParseError,
    TemporalGraph,
    TwinWindow,
    generate_random,
    parse_tel,
    serialize_tel,
)
from .oracle import all_windows
from .simulator import RunConfig, Simulation, compare_with_oracle, run
from .sketch import SketchParams

__all__ = [
    "ProblemParams",
    "RunConfig",
    "Simulation",
    "SketchParams",
    "TelParseError",
    "TemporalGraph",
    "TwinWindow",
    "all_windows",
    "compare_with_oracle",
    "generate_random",
    "parse_tel",
    "run",
    "serialize_tel",
]
