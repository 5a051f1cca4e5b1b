"""Command-line front end.

Every subcommand prints a machine-readable report (JSON by default, CSV or
aligned text on request). Identical invocations produce byte-identical
output. Exit codes: 0 success, 2 flag or input errors (including a search
space with no t-free graph or an unwritable realize --out), 3 refused search
space, realization size, coeffs order or density output size.
"""

from __future__ import annotations

import sys

import click

from .freeness import is_ckt_free, max_weighted_clique_score
from .optimize import audit_conjecture, rho
from .partitions import assignment_to_dict, parts_total
from .rationals import format_fraction, parse_fraction
from .serialize import csv_text, dumps, exact_float, float15, table
from .sphere import BEConfig, RealizationLimitError, graph_stats, realize
from .verify import (
    BasisLimitError,
    NoFreeGraphError,
    SearchConfig,
    SearchSpaceError,
    basis_coefficients,
    brute_force_extremal,
    check_structure,
    search_space_size,
)
from .weighted import GraphFormatError, graph_to_dict, load_graph

FORMATS = click.Choice(["json", "csv", "text"])
# part sizes density prints, partitions.parts_total(s, t); s = 5 admits t <= 3086
DENSITY_SIZE_LIMIT = 10**6


def _load(path: str):
    try:
        return load_graph(path)
    except OSError as exc:
        raise click.UsageError(f"cannot read graph file {path}: {exc}")
    except GraphFormatError as exc:
        where = f" (line {exc.line})" if exc.line else ""
        raise click.UsageError(f"malformed graph file {path}{where}: {exc}")


def _emit(payload: dict, fmt: str, csv_parts, text_parts) -> None:
    if fmt == "json":
        out = dumps(payload)
    elif fmt == "csv":
        out = csv_text(*csv_parts)
    else:
        out = text_parts
    # click.echo's default stream lookup caches a wrapper per sys.stdout
    # object that keeps it alive, so a caller that redirects stdout for each
    # in-process call would leak every redirected stream; get_text_stream
    # applies the same encoding checks without the cache.
    click.echo(out, file=click.get_text_stream("stdout"), nl=False)


@click.group()
def main():
    """Exact clique-density engine for weighted graphs.

    Computes generalized Ramsey-Turan densities by optimizing over balanced
    partition graphs, checks weighted t-clique freeness, runs brute-force
    searches, and realizes weighted graphs as concrete sphere-point graphs.
    """
    # exact densities at s >= 169 carry denominators past Python's default
    # 4300-digit limit on int-to-str conversion
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@main.command()
@click.option("--s", "s", type=int, required=True, help="Clique order being counted.")
@click.option("--t", "t", type=int, required=True, help="Forbidden clique parameter.")
@click.option("--format", "fmt", type=FORMATS, default="json", show_default=True)
def density(s, t, fmt):
    """Maximize the K_s-density over admissible partition skeletons."""
    if 2 <= s <= t - 2:
        sizes = parts_total(s, t)
        if sizes > DENSITY_SIZE_LIMIT:
            click.echo(f"refused: {sizes} part sizes to print exceed the limit of {DENSITY_SIZE_LIMIT}", err=True)
            sys.exit(3)
    try:
        result = rho(s, t)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    per_spec = []
    for opt in result.per_spec:
        per_spec.append(
            {
                "b": opt.spec.b,
                "a": opt.spec.a,
                "part_sizes": list(opt.spec.part_sizes),
                "weights": assignment_to_dict(opt.spec, opt.weights),
                "certified": exact_float(opt.certified),
                "upper": exact_float(opt.upper),
            }
        )
    best = result.per_spec[result.best_index]
    payload = {
        "command": "density",
        "s": s,
        "t": t,
        "density": exact_float(result.density),
        "best": {
            "index": result.best_index,
            "b": best.spec.b,
            "a": best.spec.a,
            "part_sizes": list(best.spec.part_sizes),
            "weights": assignment_to_dict(best.spec, best.weights),
        },
        "ties": list(result.ties),
        "per_spec": per_spec,
    }
    header = ["b", "a", "part_sizes", "weights", "certified_exact", "certified_float", "upper_exact", "upper_float", "best"]
    rows = [
        [
            r["b"],
            r["a"],
            " ".join(str(x) for x in r["part_sizes"]),
            " ".join(f"{k}:{v}" for k, v in r["weights"].items()),
            r["certified"]["exact"],
            float(r["certified"]["float"]),
            r["upper"]["exact"],
            float(r["upper"]["float"]),
            i == result.best_index,
        ]
        for i, r in enumerate(per_spec)
    ]
    text = (
        f"density s={s} t={t}: {format_fraction(result.density)}"
        f" ({float15(float(result.density))}) at b={best.spec.b}, a={best.spec.a}\n"
        + table(header, rows)
    )
    _emit(payload, fmt, (header, rows), text)


@main.command()
@click.option("--s", "s", type=int, required=True)
@click.option("--t-min", type=int, required=True)
@click.option("--t-max", type=int, required=True)
@click.option("--format", "fmt", type=FORMATS, default="json", show_default=True)
def audit(s, t_min, t_max, fmt):
    """Compare the observed best b against max(s, floor(t/2)) for each t."""
    if t_max < t_min:
        raise click.UsageError("--t-max must be at least --t-min")
    rows_payload = []
    for t in range(t_min, t_max + 1):
        try:
            rep = audit_conjecture(s, t)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        rows_payload.append(
            {
                "t": t,
                "conjectured_b": rep.conjectured_b,
                "observed_b": rep.observed_b,
                "counterexample": rep.counterexample,
                "margin": exact_float(rep.margin),
                "density": exact_float(rep.result.density),
            }
        )
    payload = {
        "command": "audit",
        "s": s,
        "t_min": t_min,
        "t_max": t_max,
        "rows": rows_payload,
    }
    header = ["t", "conjectured_b", "observed_b", "counterexample", "margin_exact", "margin_float", "density_exact", "density_float"]
    rows = [
        [
            r["t"],
            r["conjectured_b"],
            r["observed_b"],
            r["counterexample"],
            r["margin"]["exact"],
            float(r["margin"]["float"]),
            r["density"]["exact"],
            float(r["density"]["float"]),
        ]
        for r in rows_payload
    ]
    _emit(payload, fmt, (header, rows), f"audit s={s}\n" + table(header, rows))


@main.command()
@click.option("--graph", "graph_path", type=str, required=True, help="Weighted graph JSON file.")
@click.option("--t", "t", type=int, required=True)
@click.option("--format", "fmt", type=FORMATS, default="json", show_default=True)
def check(graph_path, t, fmt):
    """Decide weighted t-clique freeness of a graph file; report witnesses."""
    g = _load(graph_path)
    try:
        res = is_ckt_free(g, t)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    payload = {
        "command": "check",
        "t": t,
        "n": g.n,
        "free": res.free,
        "score": res.score,
        "witness": None
        if res.witness is None
        else {"s1": list(res.witness.s1), "s2": list(res.witness.s2), "score": res.witness.score},
        "trimmed": None
        if res.trimmed is None
        else {"s1": list(res.trimmed.s1), "s2": list(res.trimmed.s2), "score": res.trimmed.score},
    }
    header = ["t", "n", "free", "score", "witness_s1", "witness_s2", "trimmed_s1", "trimmed_s2"]
    row = [
        t,
        g.n,
        res.free,
        res.score,
        " ".join(map(str, res.witness.s1)) if res.witness else "",
        " ".join(map(str, res.witness.s2)) if res.witness else "",
        " ".join(map(str, res.trimmed.s1)) if res.trimmed else "",
        " ".join(map(str, res.trimmed.s2)) if res.trimmed else "",
    ]
    text = (
        f"free={str(res.free).lower()} score={res.score} t={t}\n"
        + table(header, [row])
    )
    _emit(payload, fmt, (header, [row]), text)


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--s", "s", type=int, required=True)
@click.option("--t", "t", type=int, required=True)
@click.option("--denominator", "-d", type=int, required=True, help="Vertex weights are multiples of 1/D.")
@click.option("--alphabet", type=str, default="1/2,1", show_default=True, help="Comma-separated edge weights.")
@click.option("--format", "fmt", type=FORMATS, default="json", show_default=True)
def search(n, s, t, denominator, alphabet, fmt):
    """Brute-force the best t-free graph on a discrete weight grid."""
    try:
        letters = tuple(parse_fraction(x) for x in alphabet.split(","))
        cfg = SearchConfig(n, denominator, letters, s, t)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        result = brute_force_extremal(cfg)
    except SearchSpaceError as exc:
        click.echo(f"refused: {exc}", err=True)
        sys.exit(3)
    except NoFreeGraphError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    payload = {
        "command": "search",
        "n": n,
        "s": s,
        "t": t,
        "denominator": denominator,
        "alphabet": [format_fraction(x) for x in letters],
        "space": search_space_size(cfg),
        "searched": result.searched,
        "density": exact_float(result.density),
        "maximizers": len(result.maximizers),
        "best_graph": graph_to_dict(result.best),
    }
    header = ["n", "s", "t", "denominator", "space", "density_exact", "density_float", "maximizers"]
    row = [n, s, t, denominator, payload["space"], format_fraction(result.density), float(result.density), len(result.maximizers)]
    text = (
        f"best density {format_fraction(result.density)} ({float15(float(result.density))}), "
        f"{len(result.maximizers)} maximizer(s)\n" + table(header, [row])
    )
    _emit(payload, fmt, (header, [row]), text)


@main.command()
@click.option("--m", "m", type=int, required=True)
@click.option("--format", "fmt", type=FORMATS, default="json", show_default=True)
def coeffs(m, fmt):
    """Basis coefficients of the two-part K_m-density decomposition."""
    try:
        cs = basis_coefficients(m)
    except BasisLimitError as exc:
        click.echo(f"refused: {exc}", err=True)
        sys.exit(3)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    payload = {
        "command": "coeffs",
        "m": m,
        "coefficients": [
            {"r": r, "exact": format_fraction(c), "float": float(c)} for r, c in enumerate(cs)
        ],
        "all_positive": all(c > 0 for c in cs),
    }
    header = ["r", "exact", "float"]
    rows = [[r, format_fraction(c), float(c)] for r, c in enumerate(cs)]
    text = ", ".join(f"c_{r}={format_fraction(c)}" for r, c in enumerate(cs)) + "\n"
    _emit(payload, fmt, (header, rows), text)


@main.command()
@click.option("--graph", "graph_path", type=str, required=True)
@click.option("--s", "s", type=click.IntRange(min=0), required=True)
@click.option("--t", "t", type=click.IntRange(min=1), required=True)
@click.option("--format", "fmt", type=FORMATS, default="json", show_default=True)
def structure(graph_path, s, t, fmt):
    """Evaluate the extremal-structure predicates A1-A5 on a graph file."""
    g = _load(graph_path)
    rep = check_structure(g, s, t)
    payload = {
        "command": "structure",
        "s": s,
        "t": t,
        "a1": rep.a1,
        "a2": rep.a2,
        "a3": rep.a3,
        "a4": rep.a4,
        "a5": rep.a5,
        "all_hold": rep.all_hold,
        "partition": None if rep.partition is None else [list(p) for p in rep.partition],
        "details": list(rep.details),
    }
    header = ["s", "t", "a1", "a2", "a3", "a4", "a5", "all_hold", "partition"]
    part_str = (
        "|".join(" ".join(map(str, p)) for p in rep.partition) if rep.partition else ""
    )
    row = [s, t, rep.a1, rep.a2, rep.a3, rep.a4, rep.a5, rep.all_hold, part_str]
    text = table(header, [row]) + "".join(f"- {d}\n" for d in rep.details)
    _emit(payload, fmt, (header, [row]), text)


@main.command("realize")
@click.option("--graph", "graph_path", type=str, required=True)
@click.option("--N", "n_total", type=int, required=True, help="Total vertex count.")
@click.option("--epsilon", type=float, required=True)
@click.option("--h", "h", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=str, required=True, help="Edge list output file.")
@click.option("--s", "s", type=click.IntRange(min=0), default=2, show_default=True, help="Clique order for the density estimate.")
@click.option("--t", "t", type=click.IntRange(min=1), default=None, help="Forbidden clique order to test (default: pair score + 1).")
@click.option("--clique-budget", type=int, default=100, show_default=True)
@click.option("--format", "fmt", type=FORMATS, default="json", show_default=True)
def realize_cmd(graph_path, n_total, epsilon, h, seed, out_path, s, t, clique_budget, fmt):
    """Realize a weighted graph as a concrete sphere-point graph."""
    g = _load(graph_path)
    # opened before the work, so an unwritable path fails at once
    try:
        fh = open(out_path, "w", encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot write edge file {out_path}: {exc}")
    with fh:
        try:
            rg = realize(g, n_total, BEConfig(epsilon=epsilon, h=h, seed=seed))
        except RealizationLimitError as exc:
            click.echo(f"refused: {exc}", err=True)
            sys.exit(3)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        if t is None:
            t = max_weighted_clique_score(rg.source)[0] + 1
        stats = graph_stats(rg, s, t, clique_budget=clique_budget, seed=seed)
        fh.writelines(rg.edge_rows())
    payload = {
        "command": "realize",
        "n": rg.n,
        "epsilon": epsilon,
        "h": h,
        "seed": seed,
        "out": out_path,
        "stats": stats,
    }
    header = ["i", "j", "rule", "edges", "possible", "density"]
    rows = [
        [r["i"], r["j"], r["rule"], r["edges"], r["possible"], float(r["density"])]
        for r in stats["pair_densities"]
    ]
    text = (
        f"realized {rg.n} vertices, parts {list(rg.part_sizes)}; "
        f"omega={stats['omega']['value']} (exact={str(stats['omega']['exact']).lower()}), "
        f"contains_k{t}={str(stats['contains_kt']['value']).lower()}\n" + table(header, rows)
    )
    _emit(payload, fmt, (header, rows), text)


if __name__ == "__main__":
    main()
