"""Twin-window detection in periodic time-varying graphs.

Library, synchronous-round simulator and CLI for finding pairs of nodes whose
outside neighbourhoods intersect and differ by at most d elements for delta
consecutive rounds: an exact two-phase message-passing protocol finishing in
2p rounds, a randomized sketch variant whose per-entry payload is fixed by
the sketch capacity (a message still carries one entry per neighbour of its
sender, so its size grows with degree), and a brute-force reference for
ground truth.
"""

__version__ = "0.1.0"

from .graph import (
    PlantInfeasibleError,
    ProblemParams,
    TelParseError,
    TemporalGraph,
    TwinPlant,
    TwinWindow,
    generate_random,
    id_width,
    parse_tel,
    serialize_tel,
)
from .oracle import (
    NoCommonNeighbourError,
    PairProfile,
    all_windows,
    is_d_twin,
    pair_profile,
    prop1_check,
)
from .protocol import (
    NodeState,
    Phase1Message,
    Phase2Message,
    ProtocolError,
    SketchPhase2Message,
    message_bits,
)
from .simulator import (
    CompareReport,
    RoundStats,
    RunConfig,
    RunResult,
    Simulation,
    compare_with_oracle,
    run,
)
from .sketch import (
    NeighbourhoodSketch,
    SketchParams,
    build_sketch,
    calibrated_capacity,
    estimate_intersection,
    estimate_union,
    sketch_d_twin_test,
)

__all__ = [
    "PlantInfeasibleError",
    "ProblemParams",
    "TelParseError",
    "TemporalGraph",
    "TwinPlant",
    "TwinWindow",
    "generate_random",
    "id_width",
    "parse_tel",
    "serialize_tel",
    "NoCommonNeighbourError",
    "PairProfile",
    "all_windows",
    "is_d_twin",
    "pair_profile",
    "prop1_check",
    "NodeState",
    "Phase1Message",
    "Phase2Message",
    "ProtocolError",
    "SketchPhase2Message",
    "message_bits",
    "CompareReport",
    "RoundStats",
    "RunConfig",
    "RunResult",
    "Simulation",
    "compare_with_oracle",
    "run",
    "NeighbourhoodSketch",
    "SketchParams",
    "build_sketch",
    "calibrated_capacity",
    "estimate_intersection",
    "estimate_union",
    "sketch_d_twin_test",
]
