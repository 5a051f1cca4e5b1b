"""The benchmark's workloads and the checks on their outputs.

Each workload is a fixed list of `rtdensity` CLI invocations followed by the
same three tiny probe invocations (`density`, `search`, `realize`). The
probes keep every layer measurable on every workload; they cost well under
one percent of a pass. Every check here computes its expected value or
property apart from the program (closed forms, sums over subsets, plain
enumerations, a re-parse of the edge file), so a later change that corrects
the method still passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations, product
from math import comb, factorial
from pathlib import Path
from typing import Callable


class CheckError(AssertionError):
    """An output of the program disagrees with an independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------


def graph_json(weights: list[str], edges: dict[tuple[int, int], str]) -> str:
    return json.dumps(
        {
            "vertices": [{"id": v, "w": w} for v, w in enumerate(weights)],
            "edges": [{"u": u, "v": v, "w": w} for (u, v), w in sorted(edges.items())],
        }
    )


HALF_PAIRS = [(0, 1), (2, 3), (4, 5)]
# the s = 5, t = 10 extremal graph: three half-weight pairs, all other pairs 1
R63 = graph_json(
    ["1/6"] * 6,
    {(u, v): "1/2" if (u, v) in HALF_PAIRS else "1" for u, v in combinations(range(6), 2)},
)
PAIR = graph_json(["1/2", "1/2"], {(0, 1): "1/2"})


# ---------------------------------------------------------------------------
# independent computations
# ---------------------------------------------------------------------------


def turan_bound(s: int, t: int) -> F:
    """prod_{j<s} (1 - j/(t-1)): the K_s-density of the balanced K_{t-1}."""
    out = F(1)
    for j in range(1, s):
        out *= 1 - F(j, t - 1)
    return out


def subset_density(weights: list[F], edges: dict[tuple[int, int], F], s: int) -> F:
    """s! times the sum over s-subsets of vertex-weight and edge-weight products."""
    total = F(0)
    for sub in combinations(range(len(weights)), s):
        term = F(1)
        for v in sub:
            term *= weights[v]
        for u, v in combinations(sub, 2):
            term *= edges.get((u, v), F(0))
        total += term
    return factorial(s) * total


def max_pair_score(n: int, edges: dict[tuple[int, int], F]) -> int:
    """Largest |S1| + |S2| with S1 a clique of positive edges and S2 <= S1 a
    clique of edges above 1/2, by plain enumeration of both sets."""

    def clique(vs, above):
        return all(edges.get((u, v), F(0)) > above for u, v in combinations(vs, 2))

    best = 0
    for k1 in range(1, n + 1):
        for s1 in combinations(range(n), k1):
            if not clique(s1, F(0)):
                continue
            for k2 in range(k1, 0, -1):
                if any(clique(s2, F(1, 2)) for s2 in combinations(s1, k2)):
                    best = max(best, k1 + k2)
                    break
    return best


def pairs_and_singletons_density(s: int, pairs: int, w_pair: F, singles: int, w_single: F) -> F:
    """K_s-density of `pairs` half-weight pairs and `singles` singletons, all
    other pairs at weight 1: choose k pairs whole (w^2/2 each), j pairs by one
    vertex (2w each) and the rest among the singletons."""
    total = F(0)
    for k in range(pairs + 1):
        for j in range(pairs - k + 1):
            m = s - 2 * k - j
            if 0 <= m <= singles:
                total += (
                    comb(pairs, k) * comb(pairs - k, j) * comb(singles, m)
                    * (w_pair * w_pair / 2) ** k * (2 * w_pair) ** j * w_single**m
                )
    return factorial(s) * total


def conjectured_b_value(s: int, t: int) -> F:
    """Supremum at b = s: every vertex is in every s-subset, so by AM-GM the
    weights are equal, and each pair inside a part contributes a factor 1/2."""
    a = t - 1 - s
    big, rem = divmod(s, a)
    sizes = [big + 1] * rem + [big] * (a - rem)
    return F(factorial(s), s**s) / 2 ** sum(comb(k, 2) for k in sizes)


def brute_force_optimum(n: int, d: int, alphabet: list[F], s: int, t: int) -> F:
    """Best K_s-density over t-free graphs on the discrete grid, by plain
    enumeration of every weight composition and edge assignment."""
    pairs = list(combinations(range(n), 2))
    best = F(0)
    for edge_tuple in product(alphabet, repeat=len(pairs)):
        edges = dict(zip(pairs, edge_tuple))
        if max_pair_score(n, edges) >= t:
            continue
        for ks in product(range(1, d + 1), repeat=n):
            if sum(ks) == d:
                best = max(best, subset_density([F(k, d) for k in ks], edges, s))
    return best


def exact(field: dict) -> F:
    return F(field["exact"])


def read_graph(data: dict) -> tuple[list[F], dict[tuple[int, int], F]]:
    weights = [F(v["w"]) for v in sorted(data["vertices"], key=lambda v: v["id"])]
    edges = {}
    for e in data["edges"]:
        u, v = sorted((e["u"], e["v"]))
        edges[(u, v)] = F(e["w"])
    return weights, edges


# ---------------------------------------------------------------------------
# checks per invocation
# ---------------------------------------------------------------------------


def check_audit_s40(out: dict) -> None:
    s = 40
    rows = {row["t"]: row for row in out["rows"]}
    require(sorted(rows) == [80, 81], f"audit rows cover t={sorted(rows)}")
    # explicit weightings of the large-s family at r = s: (half-weight pairs, pair weight)
    explicit = {81: (2, F(3, 4 * s)), 80: (3, F(5, 6 * s))}
    for t, (pairs, w_pair) in explicit.items():
        density, margin = exact(rows[t]["density"]), exact(rows[t]["margin"])
        conj = conjectured_b_value(s, t)
        require(density - margin == conj, f"t={t}: density - margin != value at b = s")
        floor = pairs_and_singletons_density(s, pairs, w_pair, s + 1 - 2 * pairs, F(1, s))
        require(density >= floor, f"t={t}: density below the explicit weighting")
        require(density <= turan_bound(s, t), f"t={t}: density above the Turan bound")


def check_search_graph(out: dict) -> None:
    s, t, d = out["s"], out["t"], out["denominator"]
    weights, edges = read_graph(out["best_graph"])
    require(len(weights) == out["n"] and sum(weights) == 1, "best graph weights do not sum to 1")
    require(all((w * d).denominator == 1 for w in weights), "best graph weights off the 1/d grid")
    alphabet = {F(x) for x in out["alphabet"]} | {F(0)}
    require(set(edges.values()) <= alphabet, "best graph uses an edge weight outside the alphabet")
    require(
        subset_density(weights, edges, s) == exact(out["density"]),
        "best graph density != subset sum",
    )
    require(max_pair_score(len(weights), edges) < t, "best graph is not t-free")


def check_search_optimum(out: dict) -> None:
    # AM-GM: s!/s^s is the most any weighting of s vertices reaches, and the
    # complete graph with edges at 1 attains it while scoring 2s < t.
    s = out["s"]
    require(out["n"] == s and 2 * s < out["t"], "search optimum argument needs n = s, 2s < t")
    require(exact(out["density"]) == F(factorial(s), s**s), f"search s={s}: optimum != s!/s^s")
    check_search_graph(out)


def check_probe_search(out: dict) -> None:
    alphabet = [F(x) for x in out["alphabet"]]
    best = brute_force_optimum(out["n"], out["denominator"], alphabet, out["s"], out["t"])
    require(exact(out["density"]) == best, "probe search optimum != plain enumeration")
    check_search_graph(out)


def check_density(out: dict) -> None:
    s, t = out["s"], out["t"]
    best = out["best"]
    require(sum(best["part_sizes"]) == best["b"], "best part sizes do not sum to b")
    weights, part_of = [], []
    for idx, size in enumerate(best["part_sizes"]):
        weights += [F(best["weights"][str(size)])] * size
        part_of += [idx] * size
    edges = {
        (u, v): F(1, 2) if part_of[u] == part_of[v] else F(1)
        for u, v in combinations(range(len(weights)), 2)
    }
    require(sum(weights) == 1, "best weights do not sum to 1")
    require(subset_density(weights, edges, s) == exact(out["density"]), "density != subset sum")
    require(max_pair_score(len(weights), edges) < t, "best skeleton is not t-free")
    require(exact(out["density"]) <= turan_bound(s, t), "density above the Turan bound")


def check_realize(out: dict) -> None:
    stats = out["stats"]
    sizes = stats["part_sizes"]
    n = out["n"]
    lines = Path(out["out"]).read_text(encoding="utf-8").splitlines()
    require(
        lines[0] == f"{n} parts=[{','.join(map(str, sizes))}]" and sum(sizes) == n,
        "edge file header disagrees with the reported vertex count and part sizes",
    )
    part_of = [i for i, size in enumerate(sizes) for _ in range(size)]
    between: dict[tuple[int, int], int] = {}
    within: dict[int, set] = {}
    seen = set()
    for line in lines[1:]:
        u, v = map(int, line.split())
        require(0 <= u < v < n and (u, v) not in seen, f"bad or repeated edge line {line!r}")
        seen.add((u, v))
        key = tuple(sorted((part_of[u], part_of[v])))
        between[key] = between.get(key, 0) + 1
        if part_of[u] == part_of[v]:
            within.setdefault(u, set()).add(v)
            within.setdefault(v, set()).add(u)
    require(len(seen) == sum(r["edges"] for r in stats["pair_densities"]), "edge count mismatch")
    for row in stats["pair_densities"]:
        i, j = row["i"], row["j"]
        edges = between.get((i, j), 0)
        require(edges == row["edges"], f"pair ({i},{j}) edge count differs from the file")
        if row["rule"] == "complete":
            require(edges == sizes[i] * sizes[j], f"complete pair ({i},{j}) is not complete bipartite")
        if row["rule"] == "empty":
            require(edges == 0, f"empty pair ({i},{j}) has edges")
    for u, nbrs in within.items():
        require(all(not (within[v] & nbrs) for v in nbrs), f"part of vertex {u} has a triangle")
    require(stats["contains_kt"]["value"] is False, "realized graph contains K_t")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    argv: list[str]  # argv[0], the subcommand, also names its output schema
    check: Callable[[dict], None]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: dict[str, str]  # file name -> contents, written during set-up
    invocations: Callable[[Path, int], list[Invocation]]  # (work dir, seed) -> main invocations

    def plan(self, workdir: Path, seed: int) -> list[Invocation]:
        return self.invocations(workdir, seed) + probes(workdir)


def realize_args(graph: Path, out: Path, n: int, seed: int, extra: list[str]) -> list[str]:
    return [
        "realize", "--graph", str(graph), "--N", str(n), "--epsilon", "0.2", "--h", "16",
        "--seed", str(seed), "--out", str(out), *extra,
    ]


def probes(workdir: Path) -> list[Invocation]:
    return [
        Invocation(["density", "--s", "3", "--t", "6"], check_density),
        Invocation(["search", "--n", "3", "--s", "3", "--t", "5", "-d", "3"], check_probe_search),
        # s above N skips graph_stats' 20000 sampled s-tuples, which would
        # otherwise be most of the probes' time
        Invocation(
            realize_args(workdir / "pair.json", workdir / "pair.edges", 16, 0, ["--s", "17"]),
            check_realize,
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "audit-s40",
            {"pair.json": PAIR},
            lambda d, seed: [
                Invocation(["audit", "--s", "40", "--t-min", "80", "--t-max", "81"], check_audit_s40),
            ],
        ),
        Workload(
            "search",
            {"pair.json": PAIR},
            lambda d, seed: [
                Invocation(["search", "--n", "5", "--s", "5", "--t", "11", "-d", "15"], check_search_optimum),
                Invocation(
                    ["search", "--n", "4", "--s", "4", "--t", "9", "-d", "12", "--alphabet", "0,1/2,1"],
                    check_search_optimum,
                ),
            ],
        ),
        Workload(
            "realize",
            {"pair.json": PAIR, "r63.json": R63},
            lambda d, seed: [
                Invocation(
                    realize_args(d / "r63.json", d / "r63.edges", 1200, seed, ["--s", "5", "--t", "10"]),
                    check_realize,
                ),
            ],
        ),
    ]
}
