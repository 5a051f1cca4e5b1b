"""Command-line front end.

Every subcommand is registered through `_command` and takes `--format`: it
prints a machine-readable report, JSON by default, or CSV or aligned text
whose columns are the JSON fields, a rational `x` shown as `x_exact,x_float`.
Identical invocations produce byte-identical output. Exit codes: 0 success,
2 flag or input errors (including a search space with no t-free graph or an
unwritable realize --out), 3 a refusal: any `EnumerationLimitError`, that is
a search space, realization size, coeffs order, density output size or
audit skeleton count over its limit, prints one `refused:` line.
"""

from __future__ import annotations

import functools
import sys
from typing import TYPE_CHECKING

import click

from .freeness import is_ckt_free, max_weighted_clique_score
from .optimize import audit_conjecture, rho
from .partitions import assignment_to_dict, parts_total, spec_count
from .rationals import format_fraction, parse_fraction
from .serialize import csv_text, dumps, exact_float, float15, table
from .verify import (
    NoFreeGraphError,
    SearchConfig,
    basis_coefficients,
    brute_force_extremal,
    check_structure,
    search_space_size,
)
from .weighted import EnumerationLimitError, GraphFormatError, graph_to_dict, load_graph, validate

if TYPE_CHECKING:
    from .sphere import BEConfig, graph_stats, realize

# part sizes density prints, partitions.parts_total(s, t); s = 5 admits t <= 3086
DENSITY_SIZE_LIMIT = 10**6
# skeletons audit enumerates over its t range, Σ partitions.spec_count(s, t);
# audit --s 60 --t-min 62 --t-max 370 has 31,317
AUDIT_SKELETON_LIMIT = 10**6

# The sphere layer imports numpy, which takes longer to load than every other
# command needs, so only `realize` loads it. The benchmark tracer patches
# `realize` and `graph_stats` here by name, so a name already bound is kept.
_SPHERE_NAMES = ("BEConfig", "graph_stats", "realize")


def _load_sphere() -> None:
    from . import sphere

    for name in _SPHERE_NAMES:
        globals().setdefault(name, getattr(sphere, name))


def __getattr__(name: str):
    if name in _SPHERE_NAMES:
        _load_sphere()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load(path: str):
    """The weighted graph in a file; one usage error names every defect."""
    try:
        g = load_graph(path)
    except OSError as exc:
        raise click.UsageError(f"cannot read graph file {path}: {exc}")
    except GraphFormatError as exc:
        where = f" (line {exc.line})" if exc.line else ""
        raise click.UsageError(f"malformed graph file {path}{where}: {exc}")
    errors = validate(g).errors
    if errors:
        raise click.UsageError(f"invalid weighted graph in {path}: " + "; ".join(errors))
    return g


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


def _command(name: str | None = None):
    """Register a subcommand whose body returns (payload, header, rows, text).

    The command gains the one --format option, prints the payload as JSON,
    the header and rows as CSV, or the text, and maps engine errors to exit
    codes: a refusal (any EnumerationLimitError) prints one `refused:` line
    and exits 3, NoFreeGraphError one `error:` line and exits 2, and any other
    ValueError becomes a usage error (exit 2).
    """

    def register(body):
        @functools.wraps(body)
        def run(fmt, **params):
            try:
                payload, header, rows, text = body(**params)
            except EnumerationLimitError as exc:
                click.echo(f"refused: {exc}", err=True)
                sys.exit(3)
            except NoFreeGraphError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            except ValueError as exc:
                raise click.UsageError(str(exc))
            out = dumps(payload) if fmt == "json" else csv_text(header, rows) if fmt == "csv" else text
            # click.echo's default stream lookup caches a wrapper per sys.stdout
            # object that keeps it alive, so a caller that redirects stdout for
            # each in-process call would leak every redirected stream;
            # get_text_stream applies the same encoding checks without the cache.
            click.echo(out, file=click.get_text_stream("stdout"), nl=False)

        cmd = main.command(name)(run)
        formats = click.Choice(["json", "csv", "text"])
        cmd.params.append(click.Option(["--format", "fmt"], type=formats, default="json", show_default=True))
        return cmd

    return register


def _cells(entry: dict, header: list[str]) -> list:
    """A CSV/text row read from a payload entry.

    A column names a key of the entry, or is `x_field` for entry[x][field]
    (empty when entry[x] is None). A list prints space-joined, a dict as
    space-joined `k:v` pairs.
    """
    row = []
    for col in header:
        if col in entry:
            x = entry[col]
        else:
            parent, _, field = col.partition("_")
            x = None if entry[parent] is None else entry[parent][field]
        if isinstance(x, list):
            x = " ".join(map(str, x))
        elif isinstance(x, dict):
            x = " ".join(f"{k}:{v}" for k, v in x.items())
        row.append(x)
    return row


@_command()
@click.option("--s", "s", type=int, required=True, help="Clique order being counted.")
@click.option("--t", "t", type=int, required=True, help="Forbidden clique parameter.")
def density(s, t):
    """Maximize the K_s-density over admissible partition skeletons."""
    sizes = parts_total(s, t)
    if sizes > DENSITY_SIZE_LIMIT:
        raise EnumerationLimitError(f"{sizes} part sizes to print exceed the limit of {DENSITY_SIZE_LIMIT}")
    result = rho(s, t)
    per_spec = [
        {
            "b": opt.spec.b,
            "a": opt.spec.a,
            "part_sizes": list(opt.spec.part_sizes),
            "weights": assignment_to_dict(opt.spec, opt.weights),
            "certified": exact_float(opt.certified),
            "upper": exact_float(opt.upper),
        }
        for opt in result.per_spec
    ]
    best = per_spec[result.best_index]
    payload = {
        "command": "density",
        "s": s,
        "t": t,
        "density": exact_float(result.density),
        "best": {"index": result.best_index, **{k: best[k] for k in ("b", "a", "part_sizes", "weights")}},
        "ties": list(result.ties),
        "per_spec": per_spec,
    }
    header = ["b", "a", "part_sizes", "weights", "certified_exact", "certified_float", "upper_exact", "upper_float", "best"]
    rows = [_cells(r, header[:-1]) + [i == result.best_index] for i, r in enumerate(per_spec)]
    text = (
        f"density s={s} t={t}: {format_fraction(result.density)}"
        f" ({float15(float(result.density))}) at b={best['b']}, a={best['a']}\n"
        + table(header, rows)
    )
    return payload, header, rows, text


@_command()
@click.option("--s", "s", type=int, required=True)
@click.option("--t-min", type=int, required=True)
@click.option("--t-max", type=int, required=True)
def audit(s, t_min, t_max):
    """Compare the observed best b against max(s, floor(t/2)) for each t."""
    if t_max < t_min:
        raise click.UsageError("--t-max must be at least --t-min")
    # every t has at least one skeleton, so this loop stops within
    # AUDIT_SKELETON_LIMIT + 1 steps, before anything is enumerated
    total = 0
    for t in range(t_min, t_max + 1):
        total += spec_count(s, t)
        if total > AUDIT_SKELETON_LIMIT:
            raise EnumerationLimitError(
                f"{total} skeletons to audit up to t = {t} exceed the limit of {AUDIT_SKELETON_LIMIT}"
            )
    entries = []
    for t in range(t_min, t_max + 1):
        rep = audit_conjecture(s, t)
        entries.append(
            {
                "t": t,
                "conjectured_b": rep.conjectured_b,
                "observed_b": rep.observed_b,
                "counterexample": rep.counterexample,
                "margin": exact_float(rep.margin),
                "density": exact_float(rep.result.density),
            }
        )
    payload = {"command": "audit", "s": s, "t_min": t_min, "t_max": t_max, "rows": entries}
    header = ["t", "conjectured_b", "observed_b", "counterexample", "margin_exact", "margin_float", "density_exact", "density_float"]
    rows = [_cells(r, header) for r in entries]
    return payload, header, rows, f"audit s={s}\n" + table(header, rows)


@_command()
@click.option("--graph", "graph_path", type=str, required=True, help="Weighted graph JSON file.")
@click.option("--t", "t", type=int, required=True)
def check(graph_path, t):
    """Decide weighted t-clique freeness of a graph file; report witnesses."""
    g = _load(graph_path)
    res = is_ckt_free(g, t)
    payload = {
        "command": "check",
        "t": t,
        "n": g.n,
        "free": res.free,
        "score": res.score,
        **{
            name: None if w is None else {"s1": list(w.s1), "s2": list(w.s2), "score": w.score}
            for name, w in (("witness", res.witness), ("trimmed", res.trimmed))
        },
    }
    header = ["t", "n", "free", "score", "witness_s1", "witness_s2", "trimmed_s1", "trimmed_s2"]
    rows = [_cells(payload, header)]
    return payload, header, rows, f"free={str(res.free).lower()} score={res.score} t={t}\n" + table(header, rows)


@_command()
@click.option("--n", "n", type=int, required=True)
@click.option("--s", "s", type=int, required=True)
@click.option("--t", "t", type=int, required=True)
@click.option("--denominator", "-d", type=int, required=True, help="Vertex weights are multiples of 1/D.")
@click.option("--alphabet", type=str, default="1/2,1", show_default=True, help="Comma-separated edge weights.")
def search(n, s, t, denominator, alphabet):
    """Brute-force the best t-free graph on a discrete weight grid."""
    letters = tuple(parse_fraction(x) for x in alphabet.split(","))
    cfg = SearchConfig(n, denominator, letters, s, t)
    result = brute_force_extremal(cfg)
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
    rows = [_cells(payload, header)]
    text = (
        f"best density {format_fraction(result.density)} ({float15(float(result.density))}), "
        f"{len(result.maximizers)} maximizer(s)\n" + table(header, rows)
    )
    return payload, header, rows, text


@_command()
@click.option("--m", "m", type=int, required=True)
def coeffs(m):
    """Basis coefficients of the two-part K_m-density decomposition."""
    cs = basis_coefficients(m)
    entries = [{"r": r, "exact": format_fraction(c), "float": float(c)} for r, c in enumerate(cs)]
    payload = {"command": "coeffs", "m": m, "coefficients": entries, "all_positive": all(c > 0 for c in cs)}
    header = ["r", "exact", "float"]
    text = ", ".join(f"c_{r['r']}={r['exact']}" for r in entries) + "\n"
    return payload, header, [_cells(r, header) for r in entries], text


@_command()
@click.option("--graph", "graph_path", type=str, required=True)
@click.option("--s", "s", type=click.IntRange(min=0), required=True)
@click.option("--t", "t", type=click.IntRange(min=1), required=True)
def structure(graph_path, s, t):
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
    part_str = "|".join(" ".join(map(str, p)) for p in rep.partition) if rep.partition else ""
    rows = [_cells(payload, header[:-1]) + [part_str]]
    return payload, header, rows, table(header, rows) + "".join(f"- {d}\n" for d in rep.details)


@_command("realize")
@click.option("--graph", "graph_path", type=str, required=True)
@click.option("--N", "n_total", type=int, required=True, help="Total vertex count.")
@click.option("--epsilon", type=float, required=True)
@click.option("--h", "h", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=str, required=True, help="Edge list output file.")
@click.option("--s", "s", type=click.IntRange(min=0), default=2, show_default=True, help="Clique order for the density estimate.")
@click.option("--t", "t", type=click.IntRange(min=1), default=None, help="Forbidden clique order to test (default: pair score + 1).")
@click.option("--clique-budget", type=int, default=100, show_default=True, help="Vertex count up to which omega is searched to the end and alpha is computed exactly.")
def realize_cmd(graph_path, n_total, epsilon, h, seed, out_path, s, t, clique_budget):
    """Realize a weighted graph as a concrete sphere-point graph."""
    _load_sphere()
    g = _load(graph_path)
    # opened before the work, so an unwritable path fails at once
    try:
        fh = open(out_path, "w", encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot write edge file {out_path}: {exc}")
    with fh:
        rg = realize(g, n_total, BEConfig(epsilon=epsilon, h=h, seed=seed))
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
    rows = [_cells(r, header) for r in stats["pair_densities"]]
    text = (
        f"realized {rg.n} vertices, parts {list(rg.part_sizes)}; "
        f"omega={stats['omega']['value']} (exact={str(stats['omega']['exact']).lower()}), "
        f"contains_k{t}={str(stats['contains_kt']['value']).lower()}\n" + table(header, rows)
    )
    return payload, header, rows, text


if __name__ == "__main__":
    main()
