"""Command-line front end: handlers parse arguments and print payloads, and
every code and simulation runs in `codec`.

Subcommands: graph, solve, entropy, bounds, codec, eta, verify.  All numeric
output uses 9 significant digits; outputs are byte-identical for identical
(input, config, seed).  Exit codes: 0 success, 2 budget-undecided, 1 error
(usage errors and out-of-range numbers included); a closed stdout ends the
command silently with 0.  `main` runs every subcommand, `verify` included,
inside one `Budget(nodes=--node-budget, vertices=--vertex-budget)` scope,
whose one result store lets the command solve each graph once; any product
above the vertex budget, `bounds --max-n` powers included, exits 2.  Only
these node and vertex budgets shape a payload:
`--time-budget-ms` is one hard limit on the whole command, which then
exits 2 and writes no output at all.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import signal
import sys
from fractions import Fraction

from .graphs import (
    Budget,
    BudgetExceeded,
    Distribution,
    ProbabilisticGraph,
    Undecided,
    ZeroErrError,
    and_power,
    and_product,
    catalog_get,
    channel_from_json_dict,
    characteristic_graph,
    complement,
    disjoint_union,
    graph_from_edges,
    graph_from_json_dict,
    load_json,
    pgraph_from_json_dict,
    save_json,
    uniform_pgraph,
)
from .combin import (
    MIS_LIMIT,
    alpha_exact,
    chromatic_number_exact,
    maximal_independent_sets,
    min_entropy_coloring,
    omega_exact,
)
from .numopt import (
    capacity_achieving_distribution,
    korner_entropy,
)
from .bounds import c0_bounds, c_rel_bounds, h0_bounds, hbar_bounds
from .typicality import eta_bounds, typical_alpha_estimate
from .codec import (
    build_channel_code,
    build_partial_si_code,
    build_si_code,
    build_sum_channel_code,
    channel_roundtrip,
    partial_si_roundtrip,
    partial_si_spec_from_json_dict,
    si_simulate,
    sum_channel_roundtrip,
    sum_channels_from_json_dict,
)
from .verifier import VerifyConfig, full_suite, report_to_csv


def _fmt(x) -> str:
    return f"{x:.9g}"


def _payload_csv(payload: dict) -> str:
    keys = sorted(k for k, v in payload.items()
                  if isinstance(v, (int, float, str, bool)))
    head = ",".join(keys)
    row = ",".join(str(payload[k]) for k in keys)
    return f"{head}\n{row}\n"


class _TimeBudgetExhausted(BaseException):
    """Not an Exception, so no handler in the package turns it into a payload."""


def _abort(signum, frame):
    raise _TimeBudgetExhausted


def _disarm() -> None:
    """Every writer calls this first.  An alarm that arrived before the call
    raises as soon as it returns, so an abort never leaves partial output."""
    signal.setitimer(signal.ITIMER_REAL, 0)


def _emit(args, payload: dict) -> None:
    _disarm()
    if getattr(args, "out", None):
        save_json(args.out, payload)
    if getattr(args, "format", "json") == "csv":
        print(_payload_csv(payload), end="")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _load_graph(path: str):
    return graph_from_json_dict(load_json(path))


def _load_pgraph(path: str, dist_arg=None) -> ProbabilisticGraph:
    d = load_json(path)
    if isinstance(d, dict) and "dist" in d:
        return pgraph_from_json_dict(d)
    g = graph_from_json_dict(d)
    if dist_arg:
        return ProbabilisticGraph(g, _parse_dist(dist_arg, g.n))
    return uniform_pgraph(g)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in weight '{text}'") from exc


def _parse_dist(text: str, n: int) -> Distribution:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"distribution needs {n} weights, got {len(parts)}")
    if all("/" in p for p in parts):
        return Distribution(tuple(_fraction(p) for p in parts))
    return Distribution(tuple(float(p) for p in parts))


def _interval_payload(quantity: str, iv) -> dict:
    d = iv.to_json_dict(quantity)
    d["lo"] = float(_fmt(d["lo"]))
    d["hi"] = float(_fmt(d["hi"]))
    return d


# ---------------------------------------------------------------------------
# subcommand handlers


GRAPH_ACTIONS = {  # each `graph` action and the options it requires
    "build": ("n",), "product": ("graph", "graph2"), "union": ("graph", "graph2"),
    "complement": ("graph",), "power": ("graph", "n"), "catalog": ("name",),
    "info": ("graph",), "characteristic": ("channel",),
}


def _cmd_graph(args) -> int:
    for opt in GRAPH_ACTIONS[args.action]:
        if getattr(args, opt) is None:
            raise ValueError(f"graph {args.action} requires --{opt}")
    if args.action == "build":
        if args.n < 0:
            raise ValueError(f"--n must be nonnegative, got {args.n}")
        edges = []
        if args.edges:
            for token in args.edges.split(","):
                try:
                    i, j = map(int, token.split("-"))
                except ValueError:
                    raise ValueError(f"--edges token {token!r} is not of the form i-j") from None
                edges.append((i, j))
        g = graph_from_edges(args.n, edges)
        payload = g.to_json_dict()
        if args.dist:
            payload["dist"] = _parse_dist(args.dist, g.n).to_json_value()
        _emit(args, payload)
        return 0
    if args.action == "catalog":
        g = catalog_get(args.name, args.n)
        _emit(args, g.to_json_dict())
        return 0
    if args.action == "complement":
        g = _load_graph(args.graph)
        _emit(args, complement(g).to_json_dict())
        return 0
    if args.action == "product":
        a = _load_pgraph(args.graph)
        b = _load_pgraph(args.graph2)
        _emit(args, and_product(a, b).to_json_dict())
        return 0
    if args.action == "power":
        a = _load_pgraph(args.graph)
        _emit(args, and_power(a, args.n).to_json_dict())
        return 0
    if args.action == "union":
        a = _load_pgraph(args.graph)
        b = _load_pgraph(args.graph2)
        pa = _parse_dist(args.pa or "1/2,1/2", 2)
        union, layout = disjoint_union([a, b], pa)
        payload = union.to_json_dict()
        payload["layout"] = {"block_sizes": list(layout.block_sizes),
                             "offsets": list(layout.offsets)}
        _emit(args, payload)
        return 0
    if args.action == "info":
        g = _load_graph(args.graph)
        degs = [g.degree(v) for v in range(g.n)]
        _emit(args, {
            "n": g.n,
            "edges": g.edge_count(),
            "regular": g.is_regular(),
            "min_degree": min(degs, default=0),
            "max_degree": max(degs, default=0),
        })
        return 0
    if args.action == "characteristic":
        chan = channel_from_json_dict(load_json(args.channel))
        _emit(args, characteristic_graph(chan).to_json_dict())
        return 0
    raise ValueError(f"unknown graph action '{args.action}'")


def _cmd_solve(args) -> int:
    exit_code = 0
    if args.problem == "alpha":
        g = _load_graph(args.graph)
        res = alpha_exact(g)
        exit_code = 0 if res.exact else 2
        _emit(args, {"alpha": res.size, "exact": res.exact,
                     "witness": res.witness.to_list()})
    elif args.problem == "omega":
        g = _load_graph(args.graph)
        res = omega_exact(g)
        exit_code = 0 if res.exact else 2
        _emit(args, {"omega": res.size, "exact": res.exact,
                     "witness": res.witness.to_list()})
    elif args.problem == "chi":
        g = _load_graph(args.graph)
        res = chromatic_number_exact(g)
        exit_code = 0 if res.exact else 2
        _emit(args, {"chi": res.count, "exact": res.exact,
                     "coloring": list(res.coloring.color_of)})
    elif args.problem == "hchi":
        pg = _load_pgraph(args.graph, args.dist)
        res = min_entropy_coloring(pg, args.mode)
        exit_code = 0 if res.exact else 2
        _emit(args, {"h_chi_bits": float(_fmt(res.value)), "exact": res.exact,
                     "coloring": list(res.coloring.color_of),
                     "colors": res.coloring.color_count})
    elif args.problem == "mis":
        g = _load_graph(args.graph)
        sets = maximal_independent_sets(g, args.mis_limit)
        _emit(args, {"count": len(sets),
                     "sets": [w.to_list() for w in sets]})
    else:
        raise ValueError(f"unknown solve problem '{args.problem}'")
    return exit_code


def _cmd_entropy(args) -> int:
    if args.quantity == "kappa":
        pg = _load_pgraph(args.graph, args.dist)
        sol = korner_entropy(pg, args.tol_bits)
        _emit(args, {"h_kappa_bits": float(_fmt(sol.value)),
                     "iterations": sol.iterations, "converged": sol.converged})
        return 0 if sol.converged else 2
    if args.quantity == "capdist":
        g = _load_graph(args.graph)
        opt = capacity_achieving_distribution(g, tol=args.tol_bits)
        _emit(args, {"capacity_bits": float(_fmt(opt.value)),
                     "distribution": [float(_fmt(float(w))) for w in opt.dist.weights],
                     "converged": opt.converged})
        return 0 if opt.converged else 2
    raise ValueError(f"unknown entropy quantity '{args.quantity}'")


def _cmd_bounds(args) -> int:
    if args.quantity == "c0":
        g = _load_graph(args.graph)
        iv = c0_bounds(g, max_n=args.max_n)
        _emit(args, _interval_payload("C0", iv))
        return 0
    if args.quantity == "h0":
        g = _load_graph(args.graph)
        iv = h0_bounds(g, max_n=args.max_n)
        _emit(args, _interval_payload("H0", iv))
        return 0
    if args.quantity == "hbar":
        pg = _load_pgraph(args.graph, args.dist)
        iv = hbar_bounds(pg, max_n=args.max_n)
        _emit(args, _interval_payload("Hbar", iv))
        return 0
    if args.quantity == "c":
        pg = _load_pgraph(args.graph, args.dist)
        iv = c_rel_bounds(pg, max_n=args.max_n)
        _emit(args, _interval_payload("C", iv))
        return 0
    if args.quantity == "typical-alpha":
        pg = _load_pgraph(args.graph, args.dist)
        est = typical_alpha_estimate(pg, args.n, args.eps)
        _emit(args, {"quantity": "typical-alpha",
                     "value": float(_fmt(est.value)),
                     "certified": est.certified, "note": est.note,
                     "details": est.details})
        return 0
    raise ValueError(f"unknown bounds quantity '{args.quantity}'")


def _cmd_codec(args) -> int:
    if args.kind in ("partial-si", "sum") and not args.spec:
        raise ValueError(f"codec {args.kind} requires --spec")
    if args.kind == "sum" and not args.composition:
        raise ValueError("codec sum requires --composition")
    if args.kind == "partial-si":
        spec = partial_si_spec_from_json_dict(load_json(args.spec))
        code = build_partial_si_code(spec, args.n, args.eps)
        errors, bits_total = partial_si_roundtrip(code, args.trials, args.seed)
        _emit(args, {"mode": "partial-si", "n": args.n, "eps": args.eps,
                     "components": spec.component_count,
                     "trials": args.trials, "errors": errors,
                     "rate_bits_per_symbol":
                         float(_fmt(bits_total / (args.n * args.trials)))})
        return 0 if errors == 0 else 1
    if args.kind == "sum":
        # per-channel books are built at the given block lengths and
        # time-shared by the composition
        channels = sum_channels_from_json_dict(load_json(args.spec))
        composition = tuple(int(c) for c in args.composition.split(","))
        lens = [int(x) for x in args.book_n.split(",")] if args.book_n \
            else [1] * len(channels)
        books = [build_channel_code(ch, m, args.target) for ch, m in zip(channels, lens)]
        code = build_sum_channel_code(channels, books, composition)
        errors = sum_channel_roundtrip(code, args.trials, args.seed)
        _emit(args, {"mode": "sum", "composition": list(composition),
                     "letters": code.letter_count,
                     "messages": str(code.message_count()),
                     "rate_bits": float(_fmt(code.rate())),
                     "trials": args.trials, "errors": errors})
        return 0 if errors == 0 else 1
    if not args.channel:
        raise ValueError(f"codec {args.kind} requires --channel")
    chan = channel_from_json_dict(load_json(args.channel))
    if args.kind == "channel":
        book = build_channel_code(chan, args.n, args.target)
        _emit(args, {"n": book.n, "codewords": book.to_json_list(),
                     "rate_bits": float(_fmt(book.rate())),
                     "independence_checked": book.independence_checked})
        return 0
    if args.kind == "simulate" and args.mode == "channel":
        book = build_channel_code(chan, args.n, args.target)
        errors = channel_roundtrip(book, chan, args.trials, args.seed)
        _emit(args, {"mode": "channel", "trials": args.trials,
                     "errors": errors,
                     "rate_bits": float(_fmt(book.rate()))})
        return 0 if errors == 0 else 1
    p = _parse_dist(args.dist, chan.x_count) if args.dist \
        else Distribution.uniform(chan.x_count)
    code = build_si_code(chan, p, args.n, args.eps)
    if args.kind == "si":
        _emit(args, {"n": code.n, "eps": code.eps,
                     "typical_count": len(code.typical_members),
                     "colors": code.color_count,
                     "codewords": code.color_codewords,
                     "escape_length": code.escape_length})
        return 0
    errors, bits_total = si_simulate(code, chan, p, args.trials, args.seed)
    _emit(args, {"mode": "si", "trials": args.trials, "errors": errors,
                 "rate_bits_per_symbol":
                     float(_fmt(bits_total / (args.n * args.trials)))})
    return 0 if errors == 0 else 1


def _cmd_eta(args) -> int:
    data = load_json(args.parts)
    if not isinstance(data, list):
        raise ValueError("malformed parts JSON: expected a list of probabilistic graphs")
    parts = [pgraph_from_json_dict(d) for d in data]
    pa = Distribution(tuple(_fraction(p) for p in args.pa.split(",")))
    iv, product, k = eta_bounds(parts, pa, max_n=args.max_n)
    payload = _interval_payload("eta", iv)
    payload["k"] = k
    payload["product_vertices"] = product.n
    _emit(args, payload)
    return 0


def _cmd_verify(args) -> int:
    cfg = VerifyConfig(seed=args.seed, trials=args.trials, tags=tuple(args.tag or ()))
    report = full_suite(cfg)
    _disarm()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report_to_csv(report))
    if args.out:
        save_json(args.out, report)
    summary = report["summary"]
    print(json.dumps(report if args.full_report else
                     {"summary": summary, "scenario_count": report["scenario_count"]},
                     indent=2, sort_keys=True))
    if summary["fail"] or summary["error"]:
        return 1
    if summary["undecided"]:
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2 (undecided); subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sp):
    sp.add_argument("--vertex-budget", type=int, default=1 << 16)
    sp.add_argument("--time-budget-ms", type=int, default=30_000)
    sp.add_argument("--node-budget", type=int, default=5_000_000)
    sp.add_argument("--tol-bits", type=float, default=1e-9)
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--threads", type=int, default=1)  # accepted; runs stay sequential
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", help="write the JSON payload to this file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and no default depends on the environment."""
    ap = _Parser(
        prog="zeroerr",
        description="zero-error coding quantities on probabilistic graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", help="constructions and file I/O")
    g.add_argument("action", choices=tuple(GRAPH_ACTIONS))
    g.add_argument("--graph")
    g.add_argument("--graph2")
    g.add_argument("--channel")
    g.add_argument("--n", type=int)
    g.add_argument("--name")
    g.add_argument("--edges")
    g.add_argument("--dist")
    g.add_argument("--pa")
    _add_common(g)
    g.set_defaults(func=_cmd_graph)

    s = sub.add_parser("solve", help="exact combinatorial solvers")
    s.add_argument("problem", choices=("alpha", "chi", "omega", "hchi", "mis"))
    s.add_argument("--graph", required=True)
    s.add_argument("--dist")
    s.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    s.add_argument("--mis-limit", type=int, default=MIS_LIMIT)
    _add_common(s)
    s.set_defaults(func=_cmd_solve)

    e = sub.add_parser("entropy", help="Koerner entropy and capacity maximizers")
    e.add_argument("quantity", choices=("kappa", "capdist"))
    e.add_argument("--graph", required=True)
    e.add_argument("--dist")
    _add_common(e)
    e.set_defaults(func=_cmd_entropy)

    b = sub.add_parser("bounds", help="certified interval pipelines")
    b.add_argument("quantity", choices=("hbar", "c", "c0", "h0", "typical-alpha"))
    b.add_argument("--graph", required=True)
    b.add_argument("--dist")
    b.add_argument("--max-n", type=int, default=1)
    b.add_argument("--n", type=int, default=2)
    b.add_argument("--eps", type=float, default=0.0)
    _add_common(b)
    b.set_defaults(func=_cmd_bounds)

    c = sub.add_parser("codec", help="zero-error codes and simulation")
    c.add_argument("kind", choices=("si", "partial-si", "channel", "sum", "simulate"))
    c.add_argument("--channel")
    c.add_argument("--spec", help="partial-si or sum spec JSON")
    c.add_argument("--dist")
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--eps", type=float, default=0.5)
    c.add_argument("--target", choices=("exact", "greedy"), default="exact")
    c.add_argument("--trials", type=int, default=10_000)
    c.add_argument("--mode", choices=("si", "channel"), default="channel")
    c.add_argument("--composition", help="per-channel block counts, e.g. 3,2")
    c.add_argument("--book-n", help="per-channel book block lengths")
    _add_common(c)
    c.set_defaults(func=_cmd_codec)

    t = sub.add_parser("eta", help="union entropy through products of powers")
    t.add_argument("--parts", required=True,
                   help="JSON list of probabilistic graphs")
    t.add_argument("--pa", required=True, help="rational weights, e.g. 1/3,2/3")
    t.add_argument("--max-n", type=int, default=1)
    _add_common(t)
    t.set_defaults(func=_cmd_eta)

    v = sub.add_parser("verify", help="run the scenario suite")
    v.add_argument("--tag", action="append")
    v.add_argument("--trials", type=int, default=2000)
    v.add_argument("--csv", help="write the CSV summary table here")
    v.add_argument("--full-report", action="store_true")
    _add_common(v)
    v.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    previous = signal.signal(signal.SIGALRM, _abort)
    try:
        try:
            if not 0 < args.time_budget_ms <= 10 ** 12:  # the timer's range
                raise ZeroErrError(f"time budget must be 1 to 10^12 ms: {args.time_budget_ms}")
            if not 0 < args.tol_bits < math.inf:
                raise ZeroErrError(f"--tol-bits must be positive and finite: {args.tol_bits}")
            if getattr(args, "trials", 1) < 1:
                raise ZeroErrError(f"--trials must be at least 1: {args.trials}")
            signal.setitimer(signal.ITIMER_REAL, args.time_budget_ms / 1000.0)
            with Budget(nodes=args.node_budget, vertices=args.vertex_budget):
                code = args.func(args)
            sys.stdout.flush()  # a closed stdout must fail here, not at exit
            return code
        finally:
            _disarm()
    except BrokenPipeError:
        # the reader left; the interpreter's flush at exit must not fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except _TimeBudgetExhausted:
        print(f"undecided: time budget of {args.time_budget_ms} ms exhausted", file=sys.stderr)
        return 2
    except (Undecided, BudgetExceeded) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 2
    except (ZeroErrError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGALRM, previous)


if __name__ == "__main__":
    sys.exit(main())
