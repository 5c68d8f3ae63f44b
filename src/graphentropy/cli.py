"""Command-line entry points.

Four subcommands: ``entropy`` (per-graph reports for graph6 input or a named
family), ``table1`` (star-test failure counts over connected graphs),
``verify`` (run one registered claim check), and ``augment`` (search for an
edge set reaching a target entropy). Machine output goes to stdout as JSON
lines or CSV; progress and summaries go to stderr. Exit codes: 0 normal
completion, 1 usage or input error, 2 a proved statement failed (bug),
3 a scan reported counterexamples.

Stdout is deterministic: identical inputs give byte-identical output for any
thread count (timings go to stderr only). Floats are rounded to 12 significant
digits in every format, and infinities are the strings "inf" and "-inf".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .entropy import entropy_augmentation, entropy_report
from .enumeration import CENSUS_MAX, stream_graph6
from .graphs import (
    Graph,
    Graph6Error,
    add_edges,
    complete,
    complete_bipartite,
    parse_graph6,
    path,
    star,
    write_graph6,
)
from .verify import (
    DEFAULT_WITNESS_CAP,
    TheoremViolation,
    VerificationResult,
    _result,
    coentropy_search,
    edge_add_decrease_search,
    param_comparability,
    table1_row,
    verify_density_implies_star,
    verify_renyi_max,
    verify_renyi_star_min,
    verify_star_min_von_neumann,
    verify_tree_extremes,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_THEOREM = 2
EXIT_COUNTEREXAMPLE = 3


def _round12(obj):
    """Round every float to 12 significant digits; stringify fractions and infinities."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return f"{obj:g}"  # "inf" or "-inf": JSON has no infinity
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _parse_order_range(text: str) -> range:
    """'5' -> range(5, 6); '2..8' -> range(2, 9); a range that is empty or not
    within 2..``CENSUS_MAX`` raises ValueError before one order is listed."""
    lo_s, sep, hi_s = text.partition("..")
    lo, hi = int(lo_s), int(hi_s if sep else lo_s)
    if not 2 <= lo <= hi <= CENSUS_MAX:
        raise ValueError(f"table1 orders must be a range within 2..{CENSUS_MAX}, got {text!r}")
    return range(lo, hi + 1)


def _family_graph(family: str, spec: str) -> Graph:
    if family == "bipartite":
        parts = spec.split(",")
        if len(parts) != 2:
            raise ValueError("bipartite needs --n a,b")
        return complete_bipartite(int(parts[0]), int(parts[1]))
    n = int(spec)
    if family == "star":
        return star(n)
    if family == "path":
        return path(n)
    if family == "complete":
        return complete(n)
    raise ValueError(f"unknown family {family!r}")


def _threads(args: argparse.Namespace) -> int:
    """Worker count from --threads (default 1), clamped to 1..cpu_count."""
    return max(1, min(args.threads or 1, os.cpu_count() or 1))


# --- entropy ---------------------------------------------------------------


def _report_row(g: Graph, alphas: Sequence[float]) -> dict:
    row = asdict(entropy_report(g, alphas))
    hs = row.pop("H")
    for a in alphas:
        row[f"H_{a:g}"] = hs.get(float(a))
    return _round12(row)


def _iter_input_graphs(args: argparse.Namespace) -> Iterable[Graph]:
    if args.family:
        yield _family_graph(args.family, args.n)
        return
    if args.input in (None, "-"):
        yield from stream_graph6(sys.stdin)
    else:
        with open(args.input, "r", encoding="ascii") as fh:
            yield from stream_graph6(fh)


def _write_csv(rows: Iterable[dict]) -> None:
    """Rows as CSV on stdout under a header of the first row's keys; every
    line ends in a bare newline, as in the other formats."""
    import csv  # here, so that no other command loads it

    writer = None
    for row in rows:
        if writer is None:
            writer = csv.DictWriter(sys.stdout, fieldnames=list(row), lineterminator="\n")
            writer.writeheader()
        writer.writerow(row)


def _cmd_entropy(args: argparse.Namespace) -> int:
    if (args.family is None) != (args.n is None):  # before any input is read
        raise ValueError("--family needs --n" if args.family else "--n is used only with --family")
    if args.family and args.input is not None:
        raise ValueError("--input is not read with --family")
    alphas = [float(a) for a in args.alpha] if args.alpha else []
    rows = (_report_row(g, alphas) for g in _iter_input_graphs(args))
    if args.format == "json":
        for row in rows:
            print(json.dumps(row, allow_nan=False))
    elif args.format == "csv":
        _write_csv(rows)
    else:
        for row in rows:
            bits = [f"{k}={row[k]}" for k in row]
            print("  ".join(bits))
    return EXIT_OK


# --- table1 ----------------------------------------------------------------


def _cmd_table1(args: argparse.Namespace) -> int:
    orders = _parse_order_range(args.n)  # before the sink is opened or an order scanned
    workers = _threads(args)
    rows = []
    # opened before the first scan, so that a path that cannot be written fails at once
    sink = open(args.emit_failing, "w", encoding="ascii") if args.emit_failing else None
    with sink or contextlib.nullcontext():
        for n in orders:
            failures, total, failing = table1_row(n, workers=workers)
            rows.append({"n": n, "failures": failures, "total": total})
            if sink is not None:
                sink.writelines(g6 + "\n" for g6 in failing)
    if args.format == "json":
        for row in rows:
            print(json.dumps(row, allow_nan=False))
    elif args.format == "csv":
        _write_csv(rows)
    else:
        print(f"{'n':>3} {'failures':>9} {'total':>9}")
        for row in rows:
            print(f"{row['n']:>3} {row['failures']:>9} {row['total']:>9}")
    return EXIT_OK


# --- verify ----------------------------------------------------------------


def _coentropy_stats(args: argparse.Namespace, n: int, workers: int) -> dict:
    groups = coentropy_search(n, workers=workers)
    return {"group_count": len(groups), "groups": [asdict(grp) for grp in groups]}


# each optional verify flag and its default; the parser leaves a flag not given None
_FLAG_DEFAULTS = {"alpha": None, "entropy": "S", "param": "diameter",
                  "witness_cap": DEFAULT_WITNESS_CAP, "threads": None}

# claim -> (the flags it reads, runner(args, n, workers)). A runner returns a
# VerificationResult, or, for the two searches that give no verdict, the stats
# of a claim that holds
_Runner = Callable[[argparse.Namespace, int, int], VerificationResult | dict]
CLAIMS: dict[str, tuple[tuple[str, ...], _Runner]] = {
    "star-min-S": (("witness_cap", "threads"),
                   lambda a, n, w: verify_star_min_von_neumann(n, a.witness_cap, w)),
    "tree-extremes": (("entropy", "witness_cap"),
                      lambda a, n, w: verify_tree_extremes(n, a.entropy, a.witness_cap)),
    "renyi-star-min": (("alpha", "witness_cap", "threads"),
                       lambda a, n, w: verify_renyi_star_min(n, a.alpha[0], a.witness_cap, w)),
    "renyi-max": (("alpha", "threads"), lambda a, n, w: verify_renyi_max(n, a.alpha[0], w)),
    "edge-add-decrease": (("witness_cap", "threads"),
                          lambda a, n, w: edge_add_decrease_search(n, a.witness_cap, w)),
    "coentropy": (("threads",), _coentropy_stats),
    "param-compare": (("param", "threads"),
                      lambda a, n, w: asdict(param_comparability(n, a.param, workers=w))),
    "density-implies-star": (("threads",), lambda a, n, w: verify_density_implies_star(n, w)),
}


def _run_claim(args: argparse.Namespace) -> VerificationResult:
    """Run one claim after rejecting, before any scan, the flags it does not
    read; a search without a verdict is timed here."""
    n = int(args.n)
    reads, runner = CLAIMS[args.claim]
    for flag, default in _FLAG_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif flag not in reads:
            raise ValueError(f"{args.claim} does not read --{flag.replace('_', '-')}")
    if "alpha" in reads and len(args.alpha or []) != 1:
        raise ValueError(f"{args.claim} takes exactly one --alpha, got {len(args.alpha or [])}")
    t0 = time.perf_counter()
    out = runner(args, n, _threads(args))
    return out if isinstance(out, VerificationResult) else _result(args.claim, n, t0, out)


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        result = _run_claim(args)
    except TheoremViolation as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    body = asdict(result)
    del body["runtime"]  # stdout is deterministic; the runtime goes to stderr
    if args.format == "json":
        print(json.dumps(_round12(body), allow_nan=False))
    else:
        print(f"claim: {body['claim']}  n={body['order']}  universe={body['universe']}")
        print(f"holds: {body['holds']}")
        if body["extremal_graphs"]:
            print(f"extremal: {' '.join(body['extremal_graphs'])}")
        if body["witnesses"]:
            print(f"witnesses ({len(body['witnesses'])} shown): {' '.join(body['witnesses'])}")
        for k, v in _round12(body["stats"]).items():
            print(f"  {k}: {v}")
    print(
        f"{result.claim} n={result.order}: holds={result.holds} ({result.runtime:.2f}s)",
        file=sys.stderr,
    )
    return EXIT_OK if result.holds else EXIT_COUNTEREXAMPLE


# --- augment ---------------------------------------------------------------


def _cmd_augment(args: argparse.Namespace) -> int:
    if args.input == "-":
        text = sys.stdin.readline()
    else:
        text = args.input
    g = parse_graph6(text)
    k = args.k
    missing = len(g.non_edges())
    if k > missing:
        print(f"warning: k={k} clamped to {missing} absent edges", file=sys.stderr)
        k = missing
    found = entropy_augmentation(g, k, args.x)
    if found is None:
        print("NO")
    else:
        if found:
            edges = ",".join(f"{u}-{v}" for u, v in found)
        else:
            edges = "(no edges needed)"
        print(f"YES {edges}")
        print(f"result graph6: {write_graph6(add_edges(g, found))}")
    return EXIT_OK


# --- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which this tool reserves
    # for failed proved statements; remap usage errors to exit 1
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="graphentropy",
        description="Graph entropy reports and exhaustive claim verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p_ent = sub.add_parser("entropy", help="entropy report per input graph")
    p_ent.add_argument("--input", help="graph6 file, or - for stdin (default)")
    p_ent.add_argument("--family", choices=["star", "path", "complete", "bipartite"])
    p_ent.add_argument("--n", help="order for --family (a,b for bipartite)")
    p_ent.add_argument("--alpha", action="append", help="Renyi order; repeatable")
    p_ent.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p_ent.set_defaults(func=_cmd_entropy)

    p_tab = sub.add_parser("table1", help="star-test failure counts per order")
    p_tab.add_argument("--n", required=True, help="order or range, e.g. 5 or 2..8")
    p_tab.add_argument("--emit-failing", help="write failing graphs (graph6) to this file")
    p_tab.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p_tab.add_argument("--threads", type=int)
    p_tab.set_defaults(func=_cmd_table1)

    p_ver = sub.add_parser("verify", help="run one registered claim check")
    p_ver.add_argument("claim", choices=CLAIMS)
    p_ver.add_argument("--n", required=True)
    p_ver.add_argument("--alpha", type=float, action="append",
                       help="Renyi order for renyi-star-min and renyi-max")
    p_ver.add_argument("--entropy", choices=["S", "H2"],
                       help="measure for tree-extremes (default S)")
    p_ver.add_argument("--param", choices=["matching", "diameter", "max_degree"],
                       help="parameter for param-compare (default diameter)")
    p_ver.add_argument("--witness-cap", type=int, help=f"default {DEFAULT_WITNESS_CAP}")
    p_ver.add_argument("--format", choices=["json", "text"], default="json")
    p_ver.add_argument("--threads", type=int)
    p_ver.set_defaults(func=_cmd_verify)

    p_aug = sub.add_parser("augment", help="search for edges reaching a target entropy")
    p_aug.add_argument("--input", required=True, help="graph6 word, or - for one stdin line")
    p_aug.add_argument("--k", type=int, required=True, help="max edges to add")
    p_aug.add_argument("--x", type=float, required=True, help="entropy target (bits)")
    p_aug.set_defaults(func=_cmd_augment)
    return top


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 1
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (Graph6Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
