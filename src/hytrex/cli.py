"""Command-line front door.

Grammar::

    hytrex <subcommand> (<file> | family <tag> <params...>)
           [--order a,b,c] [--hyperedges v|e] [--json] [--seed N]

Subcommands: interior, exterior, hypertrees, tutte, family, transform,
verify.  ``--order`` and ``--hyperedges`` apply to interior, exterior and
hypertrees, and ``--json`` to those and tutte; family and transform always
print JSON.  Family tags and parameters: tree N, cycle N, unicyclic N EXTRA,
ladder N, complete_bipartite M N, kmn_minus_matching M N Q, ear_graph K EARS
(``--seed`` seeds tree, unicyclic and ear_graph, and is a usage error with
any other input, as nothing else reads it).  Results go to stdout and
are byte-identical across runs for the same inputs; the hyperedge order in
effect is echoed on stderr because activities (though not the polynomials)
depend on it.  Exit status: 0 on success, 1 when a verification check
fails, 2 on usage or input errors.

``import hytrex.cli`` executes no more than ``import hytrex`` does: the
lazily executed ``families``, ``transforms`` and ``verify`` run only when
an input is a family, the subcommand is ``transform``, or it is ``verify``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import CapacityError, ClosedFormUnavailable, GraphError
from .graph import (
    BipGraph,
    abstract_dual,
    graph_from_json,
    graph_to_json,
    integer,
    normalize_edge_order,
)
from .hypertrees import hypertrees_with_inactivity
from .poly import (
    MultiGraph,
    exterior_polynomial,
    interior_polynomial,
    tutte_polynomial,
)
from . import families, transforms, verify

_TRANSFORM_OPS = ("dual", "delete", "delete-leaf", "contract",
                  "identify-pair", "add-parallel")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hytrex",
        description="Interior and exterior polynomials of connected bipartite "
                    "graphs, hypertree enumeration, and a theorem-check suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, hyperedges=True, as_json=True):
        p.add_argument("input", nargs="+",
                       help="graph JSON file, or: family <tag> <params...>")
        if hyperedges:
            p.add_argument("--order", default=None,
                           help="comma-separated hyperedge labels, smallest first "
                                "(default: input order)")
            p.add_argument("--hyperedges", choices=("v", "e"), default="e",
                           help="which colour class acts as the hyperedges")
        if as_json:
            p.add_argument("--json", action="store_true", dest="as_json",
                           help="emit JSON instead of ASCII")
        p.add_argument("--seed", type=integer, default=None,
                       help="seed for a seeded family (an error on other inputs)")

    add_common(sub.add_parser("interior", help="interior polynomial"))
    add_common(sub.add_parser("exterior", help="exterior polynomial"))
    add_common(sub.add_parser("hypertrees",
                              help="hypertrees with their inactivity counts"))
    add_common(sub.add_parser("tutte", help="Tutte polynomial of a multigraph"),
               hyperedges=False)
    add_common(sub.add_parser("family", help="emit a family graph as JSON"),
               hyperedges=False, as_json=False)
    p_tr = sub.add_parser("transform", help="apply a graph surgery")
    add_common(p_tr, hyperedges=False, as_json=False)
    p_tr.add_argument("--op", choices=_TRANSFORM_OPS, required=True)
    p_tr.add_argument("--vertex", default=None, help="vertex label for delete/contract")
    p_tr.add_argument("--pair", default=None,
                      help="two E labels, comma-separated, for identify-pair/add-parallel")
    p_tr.add_argument("--count", type=integer, default=1,
                      help="number of added vertices for add-parallel")

    p_v = sub.add_parser("verify", help="run the theorem-check suite")
    p_v.add_argument("checks", help="'all' or a comma-separated list of check names")
    p_v.add_argument("--seed", type=integer, default=7)
    p_v.add_argument("--orders", type=integer, default=20)
    p_v.add_argument("--max-total", type=integer, default=9)
    p_v.add_argument("--random-count", type=integer, default=50)
    p_v.add_argument("--random-max", type=integer, default=14)
    return parser


def _family_graph(tokens, seed) -> BipGraph:
    """The graph named by ``<tag> <params...>``."""
    if not tokens:
        raise GraphError("family needs a tag")
    return families.generate(families.spec_from_cli(tokens[0], tokens[1:], seed))


def _input_file(args) -> str:
    """The one input file; ``--seed`` is an error there, as no file reads it."""
    if len(args.input) != 1:
        raise GraphError("expected one input file or: family <tag> <params...>")
    if args.seed is not None:
        raise GraphError("--seed applies only to a seeded family, not to a file")
    return args.input[0]


def _load_bipartite(args) -> BipGraph:
    tokens = args.input
    if tokens[0] == "family":
        return _family_graph(tokens[1:], args.seed)
    with open(_input_file(args), "r", encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


def _load_multigraph(args) -> MultiGraph:
    tokens = args.input
    if tokens[0] == "family":
        g = _load_bipartite(args)
        return _as_multigraph(g)
    with open(_input_file(args), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and set(data) == {"v", "e", "adj"}:
        return _as_multigraph(graph_from_json(data))
    if not isinstance(data, dict) or set(data) != {"vertices", "edges"}:
        raise GraphError("multigraph JSON must have exactly the keys "
                         "'vertices' and 'edges'")
    labels, items = data["vertices"], data["edges"]
    # A label is any JSON scalar; lists and objects cannot be dict keys.
    if (not isinstance(labels, list) or any(isinstance(x, (list, dict)) for x in labels)
            or len(set(labels)) != len(labels)):
        raise GraphError("'vertices' must be a list of distinct scalar labels")
    if not isinstance(items, list):
        raise GraphError("'edges' must be a list of [label, label] pairs")
    index = {name: i for i, name in enumerate(labels)}
    edges = []
    for item in items:
        if not (isinstance(item, list) and len(item) == 2
                and not any(isinstance(x, (list, dict)) for x in item)):
            raise GraphError(f"bad edge entry {item!r}")
        try:
            edges.append((index[item[0]], index[item[1]]))
        except KeyError as exc:
            raise GraphError(f"unknown vertex label {exc.args[0]!r}") from None
    return MultiGraph(len(labels), edges)


def _as_multigraph(g: BipGraph) -> MultiGraph:
    return MultiGraph(g.n_v + g.n_e, [(v, g.n_v + e) for v, e in sorted(g.adj)])


def _resolve_order(g: BipGraph, text):
    if text is None:
        return None
    labels = text.split(",")
    return [g.e_index(x) for x in labels]


def _load_hyperedge_graph(args):
    """The input graph with the chosen class as hyperedges, and the order,
    validated before it is echoed on stderr."""
    g = _load_bipartite(args)
    if args.hyperedges == "v":
        g = abstract_dual(g)
    order = normalize_edge_order(g, _resolve_order(g, args.order))
    print("order: " + ",".join(g.e_names[e] for e in order), file=sys.stderr)
    return g, order


def _cmd_polynomial(args, poly_fn, var) -> int:
    g, order = _load_hyperedge_graph(args)
    poly = poly_fn(g, order=order)
    print(json.dumps(poly.to_json()) if args.as_json else poly.render(var))
    return 0


def _cmd_hypertrees(args) -> int:
    g, order = _load_hyperedge_graph(args)
    rows = [{"f": list(f),
             "internal_inactivity": internal.bit_count(),
             "external_inactivity": external.bit_count()}
            for f, [(internal, external)] in hypertrees_with_inactivity(g, [order])]
    if args.as_json:
        out = {"order": [g.e_names[e] for e in order], "hypertrees": rows}
        print(json.dumps(out, separators=(",", ":")))
    else:
        print("hypertree\tinternal_inactivity\texternal_inactivity")
        for row in rows:
            f_txt = json.dumps(row["f"], separators=(",", ":"))
            print(f"{f_txt}\t{row['internal_inactivity']}\t{row['external_inactivity']}")
    return 0


def _cmd_tutte(args) -> int:
    mg = _load_multigraph(args)
    poly = tutte_polynomial(mg)
    print(json.dumps(poly.to_json()) if args.as_json else poly.render("x", "y"))
    return 0


def _cmd_family(args) -> int:
    tokens = args.input
    if tokens[0] == "family":
        tokens = tokens[1:]
    print(json.dumps(graph_to_json(_family_graph(tokens, args.seed))))
    return 0


def _cmd_transform(args) -> int:
    g = _load_bipartite(args)
    op = args.op
    if op == "dual":
        out = abstract_dual(g)
    elif op in ("delete", "delete-leaf", "contract"):
        if not args.vertex:
            raise GraphError(f"--vertex is required for {op}")
        fn = {"delete": transforms.delete_vertex,
              "delete-leaf": transforms.delete_valence1,
              "contract": transforms.contract_vertex}[op]
        out = fn(g, args.vertex)
    else:
        if not args.pair or len(args.pair.split(",")) != 2:
            raise GraphError(f"--pair A,B is required for {op}")
        e1, e2 = args.pair.split(",")
        if op == "identify-pair":
            out = transforms.identify_pair(g, e1, e2)
        else:
            out = transforms.add_parallel_pair_vertices(g, e1, e2, args.count)
    print(json.dumps(graph_to_json(out)))
    return 0


def _cmd_verify(args) -> int:
    if args.checks == "all":
        names = None
    else:
        names = tuple(n.removeprefix("check_") for n in args.checks.split(","))

    def progress(report):
        status = "pass" if report.passed else "FAIL"
        print(f"{report.name}: {status} ({report.instances} instances, "
              f"{report.seconds:.1f}s)", file=sys.stderr)

    def corpus():
        start = time.perf_counter()
        graphs = verify.default_corpus(args.seed, args.max_total, args.random_count,
                                       args.random_max)
        print(f"corpus: {len(graphs)} graphs in {time.perf_counter() - start:.1f}s",
              file=sys.stderr)
        yield from graphs

    start = time.perf_counter()
    reports = verify.run_all_checks(seed=args.seed, corpus=corpus(),
                                    orders_per_graph=args.orders, names=names,
                                    progress=progress)
    elapsed = time.perf_counter() - start
    print(f"suite finished in {elapsed:.1f}s", file=sys.stderr)
    passed = all(r.passed for r in reports)
    print(json.dumps({
        "seed": args.seed,
        "passed": passed,
        "checks": [r.to_json() for r in reports],
    }, indent=2))
    return 0 if passed else 1


# The lambdas look the polynomial functions up at call time, so a rebinding of
# the module attribute (as a tracer does) is honoured.
_DISPATCH = {
    "interior": lambda args: _cmd_polynomial(args, interior_polynomial, "x"),
    "exterior": lambda args: _cmd_polynomial(args, exterior_polynomial, "y"),
    "hypertrees": _cmd_hypertrees,
    "tutte": _cmd_tutte,
    "family": _cmd_family,
    "transform": _cmd_transform,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply = _DISPATCH[args.command]
    try:
        return _apply(args)
    except (GraphError, CapacityError, ClosedFormUnavailable,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
