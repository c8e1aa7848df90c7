"""Command-line surface: exact measures, sampling, tests, isomorphisms, codec.

Every command is deterministic given its flags and seed.  Exit codes:
0 success, 2 usage or parse error, 3 resource cap exceeded, 4 verification
failure.  The environment variable UMINFLOW_CAPS (for example
"support=10,poset=96,extension=16") overrides any cap flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .fraisse import (
    DEFAULT_POSET_CAP,
    OrderPresentation,
    back_and_forth,
    poset_canon_presentation,
    rational_presentation,
    rational_presentation_variant,
)
from .measure import (
    CapExceededError,
    DEFAULT_EXTENSION_CAP,
    DEFAULT_SUPPORT_CAP,
    DEFAULT_UNION_CAP,
    PRECISION_CAP,
    mu_exact,
    mu_weight_recursive,
)
from .orders import ParseError, parse_event
from .randomizer import (
    RandomizerCertificate,
    compute_randomizer,
    verify_certificate,
)
from .sampler import (
    GraphPrefix,
    PresentationOrderSource,
    RandomOrderStream,
    bits_from_graph,
    density_test_family,
    graph_from_bits,
    poset_test_family,
    run_ml_tests,
    sample_bits,
    unbounded_test_family,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class VerificationFailure(RuntimeError):
    pass


def _caps_from_env(args) -> dict[str, int]:
    caps = {  # a command without a cap's flag reads its default
        "support": getattr(args, "cap_support", DEFAULT_SUPPORT_CAP),
        "poset": getattr(args, "cap_poset", DEFAULT_POSET_CAP),
        "extension": DEFAULT_EXTENSION_CAP,
    }
    for key in ("support", "poset"):
        if caps[key] < 0:
            raise ValueError(f"--cap-{key} must be non-negative, got {caps[key]}")
    raw = os.environ.get("UMINFLOW_CAPS", "")
    for item in filter(None, (part.strip() for part in raw.split(","))):
        key, _, value = item.partition("=")
        if key not in caps or not value.isdecimal():
            raise ValueError(f"bad UMINFLOW_CAPS entry {item!r}")
        caps[key] = int(value)
    return caps


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_measure(args) -> int:
    caps = _caps_from_env(args)
    expr = parse_event(args.expr)
    if args.method == "exact":
        value = str(mu_exact(expr, support_cap=caps["support"]))
        precision = None
    else:
        value = str(mu_weight_recursive(expr, args.precision))
        precision = args.precision
    if args.format == "json":
        payload = {
            "expr": args.expr,
            "mu": value,
            "method": args.method,
            "precision": precision,
        }
        _emit(args, json.dumps(payload) + "\n")
    else:
        _emit(args, value + "\n")
    return EXIT_OK


def _graph_text(g: GraphPrefix) -> str:
    lines = [str(g.n)]
    lines.extend(f"{i} {j}" for i, j in g.edge_list())
    return "\n".join(lines) + "\n"


def _two_ints(text: str, sep: str | None, name: str, shape: str) -> tuple[int, int]:
    """The two integers of ``text`` split at ``sep``, or a ValueError quoting it."""
    try:
        a, b = map(int, text.split(sep))
    except ValueError:
        raise ValueError(f"{name} must be two integers {shape}, got {text!r}") from None
    return a, b


def _parse_graph_text(text: str) -> GraphPrefix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"graph vertex count {lines[0]!r} is not an integer") from None
    edges = set()
    for ln in lines[1:]:
        i, j = _two_ints(ln, None, "a graph edge line", "I J")
        edges.add((min(i, j), max(i, j)))
    return GraphPrefix(n, frozenset(edges))


def _cmd_sample(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be non-negative, got {args.n}")
    stream = RandomOrderStream(args.seed)
    if args.kind == "order":
        prefix = stream.prefix(args.n)
        if args.format == "json":
            order = prefix.to_sequence()
            keys = [stream.key(x) for x in order]
            payload = {
                "seed": args.seed,
                "n": args.n,
                "order": order,
                "ties": sum(a == b for a, b in zip(keys, keys[1:])),
            }
            _emit(args, json.dumps(payload) + "\n")
        else:
            _emit(args, prefix.to_text())
    else:
        bits = sample_bits(args.seed, args.n * (args.n - 1) // 2)
        graph = graph_from_bits(bits)
        if args.format == "json":
            payload = {
                "seed": args.seed,
                "n": graph.n,
                "edges": [list(e) for e in graph.edge_list()],
            }
            _emit(args, json.dumps(payload) + "\n")
        else:
            _emit(args, _graph_text(graph))
    return EXIT_OK


def _families(args, caps):
    out = []
    for name in args.families.split(","):
        name = name.strip()
        if name == "density":
            n, m = _two_ints(args.pair, ",", "--pair", "N,M")
            out.append(density_test_family((n, m)))
        elif name == "unbounded":
            out.append(unbounded_test_family(args.point))
        elif name == "poset":
            out.append(
                poset_test_family(
                    poset_cap=caps["poset"], extension_cap=caps["extension"]
                )
            )
        else:
            raise ValueError(f"unknown family {name!r}")
    return out


def _parse_seeds(args) -> list[int]:
    if args.seeds is not None:
        seeds = range(*_two_ints(args.seeds, ":", "--seeds", "START:END"))
        if not seeds:
            raise ValueError(f"--seeds {args.seeds} is an empty range")
        return list(seeds)
    return [args.seed]


def _cmd_test(args) -> int:
    caps = _caps_from_env(args)
    families = _families(args, caps)
    runs = []
    if args.stream:
        source = PresentationOrderSource(_presentation(args.stream, caps))
        reports = run_ml_tests(source, families, args.depth)
        runs.append({"stream": args.stream, "reports": [r.to_json() for r in reports]})
    else:
        for seed in _parse_seeds(args):
            reports = run_ml_tests(RandomOrderStream(seed), families, args.depth)
            runs.append({"seed": seed, "reports": [r.to_json() for r in reports]})
    if args.format == "json":
        _emit(args, json.dumps(runs, indent=2) + "\n")
    else:
        lines = []
        for run in runs:
            who = args.stream or f"seed {run['seed']}"
            for rep in run["reports"]:
                lines.append(f"{who} {rep['family']}: {rep['verdict']}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _presentation(name: str, caps) -> OrderPresentation:
    if name == "rational-v1":
        return rational_presentation()
    if name == "rational-v2":
        return rational_presentation_variant()
    if name == "poset-canon":
        return poset_canon_presentation(cap=caps["poset"])
    raise ValueError(f"unknown presentation {name!r}")


def _cmd_iso(args) -> int:
    caps = _caps_from_env(args)
    pres_a = _presentation(args.a, caps)
    pres_b = _presentation(args.b, caps)
    sigma = back_and_forth(pres_a, pres_b, args.depth)
    payload = {
        "a": args.a,
        "b": args.b,
        "depth": args.depth,
        "pairs": [list(p) for p in sigma.pairs],
    }
    _emit(args, json.dumps(payload) + "\n")
    return EXIT_OK


def _cmd_randomizer(args) -> int:
    caps = _caps_from_env(args)
    tau = _presentation(args.tau, caps)
    stream = RandomOrderStream(args.seed)
    if args.verify:
        with open(args.verify) as fh:
            cert = RandomizerCertificate.from_json(json.load(fh))
        if not verify_certificate(cert, tau, stream):
            raise VerificationFailure(f"certificate {args.verify} does not verify")
        _emit(args, json.dumps({"verified": True, "depth": cert.n}) + "\n")
        return EXIT_OK
    cert = compute_randomizer(tau, stream, args.depth)
    _emit(args, json.dumps(cert.to_json()) + "\n")
    return EXIT_OK


def _read_bits_file(path: str) -> str:
    with open(path) as fh:
        raw = "".join(fh.read().split())
    if not raw:
        raise ValueError(f"no bits in {path}")
    if set(raw) <= {"0", "1"}:
        return raw
    try:
        return "".join(f"{int(c, 16):04b}" for c in raw.removeprefix("0x"))
    except ValueError:
        raise ValueError(f"{path} is neither a 0/1 nor a hex bit file") from None


def _cmd_encode(args) -> int:
    if args.direction == "bits-to-graph":
        bits = _read_bits_file(args.input)
        _emit(args, _graph_text(graph_from_bits(bits)))
    else:
        with open(args.input) as fh:
            graph = _parse_graph_text(fh.read())
        _emit(args, bits_from_graph(graph) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring


def _add_output(p, formats: bool):
    """--out, and --format for a command that prints text or JSON."""
    if formats:
        p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_measure(p):
    p.add_argument("expr")
    p.add_argument(
        "--method",
        choices=("exact", "weight"),
        default="exact",
        help="exact: enumerate the support's orders (--cap-support); weight: "
        f"signed cylinder union, with a fixed union cap of {DEFAULT_UNION_CAP} "
        f"minimal conjunctions and a fixed precision cap of -k {PRECISION_CAP}; "
        "neither cap is settable by a --cap-* flag or UMINFLOW_CAPS",
    )
    p.add_argument("-k", "--precision", type=int, default=20)
    _add_output(p, formats=True)
    p.add_argument("--cap-support", type=int, default=DEFAULT_SUPPORT_CAP)
    p.set_defaults(fn=_cmd_measure)


def _add_sample(p):
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("order", "graph"), default="order")
    _add_output(p, formats=True)
    p.set_defaults(fn=_cmd_sample)


def _add_test(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", default=None, help="range START:END, end exclusive")
    p.add_argument(
        "--stream",
        default=None,
        help="test a named presentation (e.g. poset-canon) instead of seeds",
    )
    p.add_argument("--families", default="density,unbounded,poset")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--pair", default="0,1", help="pair for the density family")
    p.add_argument("--point", type=int, default=0, help="point for the unbounded family")
    _add_output(p, formats=True)
    p.add_argument("--cap-poset", type=int, default=DEFAULT_POSET_CAP)
    p.set_defaults(fn=_cmd_test)


def _add_iso(p):
    p.add_argument("--a", default="rational-v1")
    p.add_argument("--b", default="rational-v2")
    p.add_argument("--depth", type=int, default=50)
    _add_output(p, formats=False)
    p.add_argument("--cap-poset", type=int, default=DEFAULT_POSET_CAP)
    p.set_defaults(fn=_cmd_iso)


def _add_randomizer(p):
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tau", default="rational-v1")
    p.add_argument("--depth", type=int, default=100)
    p.add_argument("--verify", default=None, help="certificate JSON to verify")
    _add_output(p, formats=False)
    p.add_argument("--cap-poset", type=int, default=DEFAULT_POSET_CAP)
    p.set_defaults(fn=_cmd_randomizer)


def _add_encode(p):
    p.add_argument("input")
    p.add_argument(
        "--direction",
        choices=("bits-to-graph", "graph-to-bits"),
        default="bits-to-graph",
    )
    _add_output(p, formats=False)
    p.set_defaults(fn=_cmd_encode)


# (name, help, the function that adds its arguments), in the order of --help
_COMMANDS = (
    ("measure", "measure of an event expression", _add_measure),
    ("sample", "sample an order prefix or a graph", _add_sample),
    ("test", "run test families against sampled streams", _add_test),
    ("iso", "back-and-forth isomorphism between presentations", _add_iso),
    ("randomizer", "compute or verify randomizer certificates", _add_randomizer),
    ("encode", "convert between bit files and graph files", _add_encode),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uminflow",
        description="exact order-event measures, sampling, and randomness tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add in _COMMANDS:
        add(sub.add_parser(name, help=help_text))
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, building only the named
    subcommand's parser where that gives the same Namespace and output.

    The subparser that ``add_parser`` makes is a plain ArgumentParser whose
    prog is "uminflow NAME", and the full parser hands it every argument
    after the name, so it prints the same help and the same errors.  Only
    leftover arguments differ: the root parser reports those, with a usage
    line that lists every command, so they go through the full parser, as
    do -h, a missing command and an unknown one.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    for name, _, add in _COMMANDS:
        if argv[:1] == [name]:
            parser = argparse.ArgumentParser(prog=f"uminflow {name}")
            add(parser)
            args, extras = parser.parse_known_args(
                argv[1:], argparse.Namespace(command=name)
            )
            if not extras:
                return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
