"""Batch command-line front end: learn, score, citest, compare, sample, export.

Exit codes: 0 success, 2 usage error (from the argument parser), 3 data
error, 4 prior-constraint conflict, 1 any other module error.
"""

from __future__ import annotations

import argparse
import sys

from .constraint import ALGORITHMS, LearnConfig, constraint_learn
from .data import (DataError, FittedNetwork, _check_delimiter, _code_cells,
                   _read_columns, _read_text, fit_mle, forward_sample, load_table,
                   write_table)
from .graph import (Graph, GraphError, average_branching, average_mb_size,
                    average_nbr_size, compare, format_modelstring,
                    parse_modelstring, to_dot)
from .hillclimb import HillClimbConfig, hill_climb
from .independence import TEST_LABELS, TEST_NAMES, TestError, ci_test
from .priors import ArcList, PriorError, PriorKnowledge
from .scores import SCORE_LABELS, SCORE_NAMES, ScoreError, ScoreSpec, default_score, \
    network_score

_FORMATS = ("modelstring", "arcs", "dot", "summary")


def load_graph(source: str, nodes=None) -> Graph:
    """Graph from a model string literal, a model-string file or an arcs file.

    Arc files are two-column delimited text with a from,to header; a pair
    listed in both orientations is read back as one undirected arc.
    """
    text = source if source.lstrip().startswith("[") else _read_text(source)
    if text.lstrip().startswith("["):
        return parse_modelstring("".join(text.split()), nodes)
    rows = _read_arc_rows(text, source)
    if nodes is None and not rows:
        raise DataError(f"arc file {source} lists no arcs, so it names no nodes")
    if nodes is None:
        nodes = tuple(dict.fromkeys(n for row in rows for n in row))
    arcs = set(rows)
    undirected = {(u, v) for u, v in arcs if (v, u) in arcs and u < v}
    # a self-loop row stays directed, for Graph to reject
    directed = {(u, v) for u, v in arcs if (v, u) not in arcs or u == v}
    return Graph(nodes, directed, undirected)


def _read_arc_rows(text: str, path: str) -> list[tuple[str, str]]:
    header, columns, lines = _read_columns(text, path, "arc")
    coded = [_code_cells(cells, name, lines, "arc", path)
             for name, cells in zip(header, columns)]
    if len(header) < 2:
        raise DataError(f"arc file {path} needs two columns (from, to) and a header")
    (tails, tail_codes), (heads, head_codes) = coded[:2]
    return [(tails[i], heads[j]) for i, j in zip(tail_codes.tolist(), head_codes.tolist())]


def _read_priors(args) -> PriorKnowledge | None:
    wl, bl = (_read_arc_rows(_read_text(path), path) if path else ()
              for path in (args.whitelist, args.blacklist))
    if not wl and not bl:
        return None
    return PriorKnowledge(ArcList(tuple(wl)), ArcList(tuple(bl)))


def _graph_payload(g: Graph, fmt: str) -> str:
    if fmt == "modelstring":
        return format_modelstring(g) + "\n"
    if fmt == "arcs":
        lines = ["from,to"] + [f"{u},{v}" for u, v in g.arcs()]
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        return to_dot(g)
    return summary_block(g)


_TITLES = {"constraint": "Bayesian network learned via Constraint-based methods",
           "score": "Bayesian network learned via Score-based methods"}


def summary_block(g: Graph) -> str:
    p = g.provenance
    title = _TITLES.get(p.method, "Bayesian network")
    model = format_modelstring(g) if g.directed else "[partially directed graph]"
    lines = [
        "",
        f"  {title}",
        "",
        "  model:",
        f"    {model} ",
        f"  nodes:                                 {len(g.nodes)} ",
        f"  arcs:                                  {g.narcs()} ",
        f"    undirected arcs:                     {len(g.undirected_arcs)} ",
        f"    directed arcs:                       {len(g.directed_arcs)} ",
        f"  average markov blanket size:           {average_mb_size(g):.2f} ",
        f"  average neighbourhood size:            {average_nbr_size(g):.2f} ",
        f"  average branching factor:              {average_branching(g):.2f} ",
        "",
    ]
    if p.method in _TITLES:
        if p.method == "constraint":
            criterion = [
                f"  conditional independence test:         {TEST_NAMES[p.test]} ",
                f"  alpha threshold:                       {p.alpha:g} ",
            ]
        else:
            criterion = [f"  score:                                 {SCORE_NAMES[p.score]} "]
            if p.penalty is not None:
                criterion.append(f"  penalization coefficient:              {p.penalty:g} ")
            if p.iss is not None:
                criterion.append(f"  equivalent sample size:                {p.iss:g} ")
        lines += [
            f"  learning algorithm:                    {p.algorithm} ",
            *criterion,
            f"  tests used in the learning procedure:  {p.ntests} ",
            f"  optimized:                             {'TRUE' if p.optimized else 'FALSE'} ",
        ]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _score_spec(args, data) -> ScoreSpec:
    """--score and --iss, with the data's default score when --score is not given."""
    return ScoreSpec(kind=args.score or default_score(data), iss=args.iss)


def _cmd_learn(args) -> int:
    if args.algo == "hc" and not args.optimized:
        raise ScoreError("--optimized false applies only to the constraint-based "
                         "algorithms; hill-climbing always keeps its score cache")
    data = load_table(args.data, type_hint=args.type, delimiter=args.delimiter)
    priors = _read_priors(args)
    start = load_graph(args.start, nodes=data.names) if args.start else None
    if args.algo == "hc":
        cfg = HillClimbConfig(score=_score_spec(args, data), priors=priors, start=start,
                              restarts=args.restart, perturb=args.perturb,
                              seed=args.seed, debug=args.debug)
        graph, trace = hill_climb(data, cfg)
    else:
        cfg = LearnConfig(algorithm=args.algo, test=args.test, alpha=args.alpha,
                          B=args.B, priors=priors, optimized=args.optimized,
                          debug=args.debug, seed=args.seed)
        graph, trace = constraint_learn(data, cfg)
    if args.format is None:
        text = (_graph_payload(graph, "modelstring" if graph.directed else "arcs")
                + summary_block(graph))
    else:
        text = _graph_payload(graph, args.format)
    _emit(text, args.out)
    return 0


def _cmd_score(args) -> int:
    data = load_table(args.data, type_hint=args.type, delimiter=args.delimiter)
    graph = load_graph(args.graph, nodes=data.names)
    value = network_score(graph, data, _score_spec(args, data))
    _emit(f"{value!r}\n", args.out)
    return 0


def _cmd_citest(args) -> int:
    data = load_table(args.data, type_hint=args.type, delimiter=args.delimiter)
    res = ci_test(data, args.x, args.y, args.z, test=args.test, B=args.B,
                  seed=args.seed)
    cond = f" | {' + '.join(args.z)}" if args.z else ""
    lines = [
        "",
        f"\t{TEST_NAMES[res.label]}",
        "",
        f"data:  {args.x} ~ {args.y}{cond}",
    ]
    stat_part = f"{res.label} = {res.statistic:.4g}"
    if res.replicates is not None:
        stat_part += f", B = {res.replicates}"
    elif res.df is not None:  # an untestable (degenerate) result has neither
        stat_part += f", df = {res.df:g}"
    lines.append(f"{stat_part}, p-value = {res.p_value:.4g}")
    lines.append("alternative hypothesis: true value is not equal to 0")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _nodes(args) -> tuple[str, ...] | None:
    """The --nodes universe, or None when the option is not given."""
    return tuple(args.nodes.split(",")) if args.nodes else None


def _cmd_compare(args) -> int:
    nodes = _nodes(args)
    g1 = load_graph(args.first, nodes=nodes)
    g2 = load_graph(args.second, nodes=nodes or g1.nodes)
    equal, report = compare(g1, g2)
    out = ["true" if equal else "false"]
    if not equal:
        out.append(report.format())
    _emit("\n".join(out) + "\n", args.out)
    return 0


def _cmd_sample(args) -> int:
    delimiter = "," if args.delimiter is None else args.delimiter
    _check_delimiter(delimiter)  # before any sampling, as load_table checks it
    if args.params:
        text = _read_text(args.params)
        try:
            fitted = FittedNetwork.from_json(text)
        except DataError as exc:
            raise DataError(f"{exc}, in fitted-network file {args.params}") from None
    else:
        if not (args.model and args.data):
            raise DataError("sample needs either --params or --model with --data")
        data = load_table(args.data, type_hint=args.type, delimiter=args.delimiter)
        graph = load_graph(args.model, nodes=data.names)
        fitted = fit_mle(graph, data)
    sampled = forward_sample(fitted, args.n, args.seed)
    write_table(sampled, args.out or sys.stdout, delimiter=delimiter)
    return 0


def _cmd_render(args) -> int:
    """export-dot and modelstring: the graph in args.format, as learn --format writes it."""
    graph = load_graph(args.graph, nodes=_nodes(args))
    _emit(_graph_payload(graph, args.format), args.out)
    return 0


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    """Ingestion flags, for the subcommands that read a data file."""
    p.add_argument("--delimiter", help="field delimiter (default: auto-detect)")
    p.add_argument("--type", choices=("discrete", "continuous"),
                   help="force the column type on ingestion")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnsl",
        description="Learn, score, test, compare, sample and export Bayesian networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a network structure from data")
    p.add_argument("data", help="delimited data file with a header row")
    p.add_argument("--algo", choices=ALGORITHMS + ("hc",), default="gs")
    p.add_argument("--test", choices=TEST_LABELS)
    p.add_argument("--score", choices=SCORE_LABELS)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--B", type=int, default=None,
                   help="permutation replicates for Monte Carlo tests")
    p.add_argument("--iss", type=float, default=1.0,
                   help="equivalent sample size for bde/bge")
    p.add_argument("--whitelist", help="arc file of required arcs")
    p.add_argument("--blacklist", help="arc file of forbidden arcs")
    p.add_argument("--start", help="model string or graph file to start hc from")
    p.add_argument("--restart", type=int, default=0)
    p.add_argument("--perturb", type=int, default=1)
    p.add_argument("--optimized", choices=("true", "false"), default="true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--debug", action="store_true")
    p.add_argument("--format", choices=_FORMATS, default=None)
    _add_data_flags(p)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("score", help="score a network structure against data")
    p.add_argument("graph", help="model string, model-string file or arcs file")
    p.add_argument("data")
    p.add_argument("--score", choices=SCORE_LABELS)
    p.add_argument("--iss", type=float, default=1.0)
    _add_data_flags(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("citest", help="run one conditional independence test")
    p.add_argument("data")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z", nargs="*", help="conditioning variables")
    p.add_argument("--test", choices=TEST_LABELS)
    p.add_argument("--B", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_data_flags(p)
    p.set_defaults(func=_cmd_citest)

    p = sub.add_parser("compare", help="compare two network structures")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--nodes", help="comma-separated node universe for arc files")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sample", help="forward-sample synthetic rows")
    p.add_argument("--model", help="model string or graph file (fit on --data)")
    p.add_argument("--data", help="data file used to fit the parameters")
    p.add_argument("--params", help="fitted-parameter JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_data_flags(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("export-dot", help="write the graph as DOT text")
    p.add_argument("graph")
    p.add_argument("--nodes")
    p.set_defaults(func=_cmd_render, format="dot")

    p = sub.add_parser("modelstring", help="print the canonical model string")
    p.add_argument("graph")
    p.add_argument("--nodes")
    p.set_defaults(func=_cmd_render, format="modelstring")

    for sp in sub.choices.values():
        sp.add_argument("--out", help="write the primary output to this file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "optimized"):
        args.optimized = args.optimized == "true"
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PriorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (GraphError, ScoreError, TestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
