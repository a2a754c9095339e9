"""Command-line interface: run the protocol, query the reference, compare, generate.

Exit codes: 0 success, 2 usage or validation error, 3 verification failure.
"""

import argparse
import json
import sys
from pathlib import Path

from . import __version__, oracle
from .graph import (
    ProblemParams,
    TelParseError,
    TemporalGraph,
    TwinPlant,
    generate_random,
    parse_tel,
    serialize_tel,
)
from .sketch import SketchParams, calibrated_capacity
from .simulator import MODES, RunConfig, compare_with_oracle, graph_digest, run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3


def build_result_document(
    graph: TemporalGraph,
    params: ProblemParams,
    mode: str,
    seed: int,
    windows: dict,
    stats: dict | None = None,
    sketch_params: SketchParams | None = None,
) -> dict:
    doc = {
        "version": __version__,
        "input": {"n": graph.n, "p": graph.p, "max_degree": graph.max_degree()},
        "params": {"delta": params.delta, "d": params.d, "mode": mode, "seed": seed},
        "windows": [
            {
                "node": v,
                "twins": [
                    {"peer": w.peer, "start": w.start} for w in sorted(windows[v])
                ],
            }
            for v in sorted(windows)
        ],
    }
    if sketch_params is not None:
        doc["params"]["sketch"] = {
            "k": sketch_params.k,
            "epsilon": sketch_params.epsilon,
            "nu": sketch_params.nu,
        }
    if stats is not None:
        doc["stats"] = stats
    return doc


def document_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_graph(path: str) -> TemporalGraph:
    # Lines end as in text mode, where CRLF and a lone CR read as LF.  UTF-8
    # never uses either byte inside a character, so the bytes can be translated.
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        bad = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise TelParseError(line_no, bad) from None
    return parse_tel(text)


def _sketch_params(args) -> SketchParams | None:
    if args.mode == "exact":
        if args.epsilon is not None or args.nu is not None or args.k is not None:
            print("warning: sketch flags ignored in exact mode", file=sys.stderr)
        return None
    epsilon = args.epsilon if args.epsilon is not None else 0.2
    nu = args.nu if args.nu is not None else 0.1
    k = args.k if args.k is not None else calibrated_capacity(epsilon, nu)
    return SketchParams(k=k, epsilon=epsilon, nu=nu, hash_seed=args.seed)


def cmd_run(args) -> int:
    graph = _load_graph(args.input)
    params = ProblemParams(delta=args.delta, d=args.d)
    sp = _sketch_params(args)
    result = run(graph, RunConfig(params, args.mode, sp, seed=args.seed))
    stats = result.stats.as_dict() if args.stats else None
    doc = build_result_document(graph, params, args.mode, args.seed, result.windows, stats, sp)
    _emit(document_json(doc), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    graph = _load_graph(args.input)
    params = ProblemParams(delta=args.delta, d=args.d)
    sp = _sketch_params(args)
    windows = oracle.all_windows(graph, params)
    # Structural digest only; the reference passes no messages.
    stats = graph_digest(graph) if args.stats else None
    doc = build_result_document(graph, params, args.mode, args.seed, windows, stats, sp)
    _emit(document_json(doc), args.out)
    return EXIT_OK


def _parse_gen_spec(spec: str) -> tuple[int, int, float]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError(f"--gen expects 'n,p,prob', got {spec!r}")
    return int(parts[0]), int(parts[1]), float(parts[2])


def cmd_compare(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    params = ProblemParams(delta=args.delta, d=args.d)
    if args.gen is not None:
        if args.input is not None:
            raise ValueError("compare takes --input or --gen, not both")
        n, p, prob = _parse_gen_spec(args.gen)
        # The first instance is made here, so that an invalid spec fails before
        # any warning; the loop makes each later one.
        graph = generate_random(n, p, prob, seed=args.seed)
    else:
        if args.input is None:
            raise ValueError("compare needs --input or --gen")
        if args.trials != 1:
            raise ValueError(f"--trials {args.trials} needs --gen: --input is one instance")
        graph = _load_graph(args.input)

    config = RunConfig(params, args.mode, _sketch_params(args), seed=args.seed)

    total_diffs = 0
    decisions = mismatched = boundary = 0
    lines = []
    for trial in range(args.trials):
        if graph is None:
            graph = generate_random(n, p, prob, seed=args.seed + trial)
        report = compare_with_oracle(graph, config)
        graph = None  # dropped before the next is made: one instance is held at a time
        total_diffs += sum(len(m) + len(e) for m, e in report.differences.values())
        decisions += report.decisions
        mismatched += report.mismatched_decisions
        boundary += report.boundary_decisions
        if report.differences:
            lines.append(f"trial {trial}: {len(report.differences)} node(s) differ")

    if args.mode == "exact":
        lines.append(f"{total_diffs} differences / {args.trials} trials")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK if total_diffs == 0 else EXIT_VERIFY
    rate = mismatched / decisions if decisions else 0.0
    lines.append(f"{total_diffs} window differences / {args.trials} trials")
    lines.append(f"decision mismatch rate: {rate:.6f} ({mismatched} of {decisions})")
    lines.append(f"boundary decisions: {boundary} of {mismatched} mismatches")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if rate <= config.sketch_params.nu else EXIT_VERIFY


def _parse_plant_spec(spec: str) -> TwinPlant:
    parts = spec.split(",")
    if len(parts) != 5:
        raise ValueError(f"--plant expects 'u,v,t0,L,dprime', got {spec!r}")
    u, v, t0, length, dprime = (int(x) for x in parts)
    return TwinPlant(u=u, v=v, start=t0, length=length, difference=dprime)


def cmd_gen(args) -> int:
    if args.verify and not args.plant:
        raise ValueError("--verify needs --plant: there is nothing to verify")
    plant = _parse_plant_spec(args.plant) if args.plant else None
    graph = generate_random(args.n, args.p, args.prob, plant=plant, seed=args.seed)
    _emit(serialize_tel(graph), args.out)
    if args.verify:
        for i in range(plant.length):
            t = (plant.start + i) % args.p
            profile = oracle.pair_profile(graph, plant.u, plant.v, t)
            if profile.common_count < 1 or profile.difference != plant.difference:
                print(
                    f"verification failed at round {t}: "
                    f"common={profile.common_count} difference={profile.difference}",
                    file=sys.stderr,
                )
                return EXIT_VERIFY
        print(
            f"plant verified: ({plant.u}, {plant.v}) difference {plant.difference} "
            f"on {plant.length} round(s) from {plant.start % args.p}",
            file=sys.stderr,
        )
    return EXIT_OK


def _add_run_flags(sub: argparse.ArgumentParser, input_required: bool = True) -> None:
    sub.add_argument("--input", required=input_required, help=".tel input file")
    sub.add_argument("--delta", type=int, required=True, help="window length")
    sub.add_argument("--d", type=int, required=True, help="tolerated neighbourhood difference")
    sub.add_argument("--mode", choices=MODES, default="exact")
    sub.add_argument("--epsilon", type=float, default=None, help="sketch accuracy target")
    sub.add_argument("--nu", type=float, default=None, help="sketch failure probability")
    sub.add_argument("--k", type=int, default=None, help="sketch capacity (default: calibrated)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvtwins",
        description="Detect twin windows in periodic time-varying graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, handler in (
        ("run", "execute the distributed protocol", cmd_run),
        ("oracle", "compute windows by brute force", cmd_oracle),
    ):
        p_doc = sub.add_parser(name, help=help_text)
        _add_run_flags(p_doc)
        p_doc.add_argument("--stats", action="store_true", help="include the stats block")
        p_doc.set_defaults(handler=handler)

    p_cmp = sub.add_parser("compare", help="protocol versus brute force")
    _add_run_flags(p_cmp, input_required=False)
    p_cmp.add_argument("--trials", type=int, default=1, help="number of generated instances")
    p_cmp.add_argument("--gen", default=None, help="generate instances: 'n,p,prob'")
    p_cmp.set_defaults(handler=cmd_compare)

    p_gen = sub.add_parser("gen", help="generate a random .tel instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=int, required=True)
    p_gen.add_argument("--prob", type=float, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--plant", default=None, help="plant twins: 'u,v,t0,L,dprime'")
    p_gen.add_argument("--out", default=None, help="output file (default: stdout)")
    p_gen.add_argument("--verify", action="store_true", help="check the plant via brute force")
    p_gen.set_defaults(handler=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TelParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
