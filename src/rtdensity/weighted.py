"""Weighted graphs with exact rational weights and exact clique densities.

A weighted graph has vertex weights summing to 1, symmetric edge weights in
[0, 1], and zero diagonal. All densities here are exact rationals; there is
deliberately no floating-point evaluation path in this module.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Mapping

from .graphs import SimpleGraph, lex_cliques
from .rationals import RationalLike, as_fraction, format_fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# The all-maps density oracle refuses above this many maps; it exists for
# desk-scale verification, not production evaluation.
ALL_MAPS_LIMIT = 10**7


class EnumerationLimitError(RuntimeError):
    """Raised when an enumeration oracle would exceed its documented budget."""


class GraphFormatError(ValueError):
    """Malformed weighted-graph JSON. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted graph; edge_weights is the full symmetric matrix."""

    vertex_weights: tuple[Fraction, ...]
    edge_weights: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def build(
        cls,
        weights: Iterable[RationalLike],
        edges: Mapping[tuple[int, int], RationalLike]
        | Iterable[tuple[int, int, RationalLike]] = (),
    ) -> "WeightedGraph":
        """Build from vertex weights and sparse edges; missing pairs weigh 0."""
        vw = tuple(as_fraction(w) for w in weights)
        n = len(vw)
        mat = [[ZERO] * n for _ in range(n)]
        if isinstance(edges, Mapping):
            triples = [(u, v, w) for (u, v), w in edges.items()]
        else:
            triples = [(u, v, w) for (u, v, w) in edges]
        for u, v, w in triples:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-edge at vertex {u}")
            mat[u][v] = mat[v][u] = as_fraction(w)
        return cls(vw, tuple(tuple(row) for row in mat))

    @property
    def n(self) -> int:
        return len(self.vertex_weights)


@dataclass(frozen=True)
class ValidationReport:
    """Invariant violations (errors) and benign oddities (warnings)."""

    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(g: WeightedGraph) -> ValidationReport:
    """Check the weighted-graph definition; empty errors iff g satisfies it.

    A zero vertex weight is reported as a warning, not an error: intermediate
    constructions may produce one, and every density operation treats it
    correctly (it contributes nothing).
    """
    errors: list[str] = []
    warnings: list[str] = []
    n = g.n
    total = sum(g.vertex_weights, ZERO)
    if total != ONE:
        errors.append(f"vertex weights sum to {format_fraction(total)}, expected 1")
    for v, w in enumerate(g.vertex_weights):
        if w < 0 or w > 1:
            errors.append(f"vertex weight w({v}) = {format_fraction(w)} outside [0,1]")
        elif w == 0:
            warnings.append(f"vertex {v} has zero weight")
    if len(g.edge_weights) != n or any(len(row) != n for row in g.edge_weights):
        errors.append("edge weight matrix shape does not match vertex count")
        return ValidationReport(tuple(errors), tuple(warnings))
    for u in range(n):
        if g.edge_weights[u][u] != 0:
            errors.append(
                f"w({u},{u}) = {format_fraction(g.edge_weights[u][u])}, expected 0"
            )
        for v in range(u + 1, n):
            w = g.edge_weights[u][v]
            if w != g.edge_weights[v][u]:
                errors.append(f"edge weight asymmetric at ({u},{v})")
            if w < 0 or w > 1:
                errors.append(
                    f"edge weight w({u},{v}) = {format_fraction(w)} outside [0,1]"
                )
    return ValidationReport(tuple(errors), tuple(warnings))


def threshold_subgraph(g: WeightedGraph, alpha: RationalLike) -> SimpleGraph:
    """Spanning subgraph keeping edges with weight strictly above alpha."""
    a = as_fraction(alpha)
    if a < 0 or a > 1:
        raise ValueError(f"threshold {format_fraction(a)} outside [0,1]")
    n = g.n
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if g.edge_weights[u][v] > a:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return SimpleGraph(n, tuple(rows))


def h_density(g: WeightedGraph, h: SimpleGraph) -> Fraction:
    """Density of H in g as the sum over *all* maps [s] -> V(g).

    Non-injective maps are included; they contribute 0 exactly when two equal
    images span an H-edge, since the diagonal edge weight is 0. The K_0 map
    has density 1 by convention. Refuses above ALL_MAPS_LIMIT maps.
    """
    s = h.n
    if s == 0:
        return ONE
    n = g.n
    if n == 0:
        return ZERO
    if n**s > ALL_MAPS_LIMIT:
        raise EnumerationLimitError(
            f"{n}^{s} maps exceeds the all-maps oracle budget of {ALL_MAPS_LIMIT}"
        )
    earlier = [[j for j in range(i) if h.has_edge(i, j)] for i in range(s)]
    total = ZERO
    image = [0] * s

    def rec(i: int, product: Fraction) -> None:
        nonlocal total
        if i == s:
            total += product
            return
        for v in range(n):
            p = product * g.vertex_weights[v]
            if p == 0:
                continue
            for j in earlier[i]:
                p *= g.edge_weights[image[j]][v]
                if p == 0:
                    break
            if p == 0:
                continue
            image[i] = v
            rec(i + 1, p)

    rec(0, ONE)
    del rec  # break the closure's reference cycle
    return total


def ks_density(g: WeightedGraph, s: int) -> Fraction:
    """K_s-density of g, summed over ordered injections.

    Equals h_density(g, K_s): repeated vertices vanish because every pair of
    K_s is an edge and the diagonal weighs 0.
    """
    return ks_density_with(g, s, (), "containing")


def ks_density_with(
    g: WeightedGraph, s: int, subset: Iterable[int], mode: str
) -> Fraction:
    """K_s-density restricted by a vertex subset S.

    mode="containing": injections whose image includes S;
    mode="within":     image contained in S;
    mode="avoiding":   image disjoint from S.

    The sum runs over the cliques of the nonzero-edge graph, the only s-sets
    whose product of vertex and pair weights is nonzero: a fixed prefix (S
    when containing) plus `lex_cliques` over a pool of nonzero-weight
    vertices, each clique's product extended from its parent's.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    members = sorted(set(subset))
    for v in members:
        if not (0 <= v < g.n):
            raise ValueError(f"subset vertex {v} out of range")
    in_s = sum(1 << v for v in members)
    pool = {"within": in_s, "avoiding": ~in_s, "containing": ~in_s}.get(mode)
    if pool is None:
        raise ValueError(f"unknown mode {mode!r}")
    prefix = members if mode == "containing" else []
    vw, ew = g.vertex_weights, g.edge_weights
    adj = [sum(1 << v for v, w in enumerate(row) if w) for row in ew]
    pool &= sum(1 << v for v, w in enumerate(vw) if w)
    need = s - len(prefix)
    terms = [ONE] * (s + 1)  # terms[d]: the product over the prefix and d clique vertices
    for i, v in enumerate(prefix):
        pool &= adj[v]
        terms[0] *= vw[v] * prod(ew[u][v] for u in prefix[:i])
    # lead[v]: the factor v brings on its own, its weight times its prefix edges
    lead = [prod((ew[u][v] for u in prefix), start=vw[v]) for v in range(g.n)]
    total = ZERO
    for clique in lex_cliques(adj, pool, need, need):
        d = len(clique)
        if d:
            v = clique[-1]
            term = terms[d - 1] * lead[v]
            for u in clique[:-1]:
                term *= ew[v][u]
            terms[d] = term
        if d == need:
            total += terms[d]
    return factorial(s) * total


def merge_zero_edge(g: WeightedGraph, u: int, v: int, keep: int) -> WeightedGraph:
    """Contract a zero-weight edge: drop one endpoint, pool the vertex weights.

    Vertices after the dropped one shift down by one index.
    """
    if u == v:
        raise ValueError("u and v must be distinct")
    if g.edge_weights[u][v] != 0:
        raise ValueError(
            f"edge ({u},{v}) has weight {format_fraction(g.edge_weights[u][v])}, expected 0"
        )
    if keep not in (u, v):
        raise ValueError("keep must be one of the merged endpoints")
    drop = v if keep == u else u
    remain = [x for x in range(g.n) if x != drop]
    new_weights = []
    for x in remain:
        w = g.vertex_weights[x]
        if x == keep:
            w = g.vertex_weights[u] + g.vertex_weights[v]
        new_weights.append(w)
    mat = tuple(
        tuple(g.edge_weights[x][y] for y in remain) for x in remain
    )
    return WeightedGraph(tuple(new_weights), mat)


def round_edges_up(g: WeightedGraph) -> WeightedGraph:
    """Raise each edge weight to the next multiple of 1/2 (0 stays 0)."""

    def up(w: Fraction) -> Fraction:
        if w == 0:
            return ZERO
        if w <= HALF:
            return HALF
        return ONE

    n = g.n
    mat = tuple(
        tuple(up(g.edge_weights[u][v]) if u != v else ZERO for v in range(n))
        for u in range(n)
    )
    return WeightedGraph(g.vertex_weights, mat)


# ---------------------------------------------------------------------------
# JSON graph format:
#   {"vertices": [{"id": 0, "w": "1/6"}, ...],
#    "edges":    [{"u": 0, "v": 1, "w": "1/2"}, ...]}
# Missing pairs default to weight 0. The serializer emits vertices in id
# order and each edge once with u < v, omitting zero-weight pairs.
# ---------------------------------------------------------------------------


def graph_to_dict(g: WeightedGraph) -> dict:
    vertices = [
        {"id": v, "w": format_fraction(g.vertex_weights[v])} for v in range(g.n)
    ]
    edges = [
        {"u": u, "v": v, "w": format_fraction(g.edge_weights[u][v])}
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.edge_weights[u][v] != 0
    ]
    return {"vertices": vertices, "edges": edges}


def _fields(entry, keys: tuple[str, ...], what: str) -> list:
    """The values of a vertex or edge object that has exactly `keys`."""
    if not isinstance(entry, dict) or set(entry) != set(keys):
        raise GraphFormatError(f"{what} entry {entry!r} needs exactly the keys {', '.join(keys)}")
    return [entry[k] for k in keys]


def _weight(w, where: str) -> Fraction:
    """A graph-file weight: a "p/q" string in the schema's form, never a JSON
    number or boolean (int() alone would also take " 1", "+1" and "1_0")."""
    if not (isinstance(w, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", w)):
        raise GraphFormatError(f'{where}: malformed rational {w!r}, not a "p/q" string')
    try:
        return as_fraction(w)
    except ValueError as exc:  # a zero denominator
        raise GraphFormatError(f"{where}: {exc}") from None


def graph_from_dict(data: dict) -> WeightedGraph:
    """Parse a graph file's JSON; what schemas/graph.schema.json rejects raises
    GraphFormatError."""
    if not (
        isinstance(data, dict)
        and set(data) in ({"vertices"}, {"vertices", "edges"})
        and isinstance(data["vertices"], list)
        and isinstance(data.get("edges", []), list)
    ):
        raise GraphFormatError(
            "graph JSON must be an object with a 'vertices' list, an optional"
            " 'edges' list and no other keys"
        )
    seen: dict[int, Fraction] = {}
    for entry in data["vertices"]:
        vid, w = _fields(entry, ("id", "w"), "vertex")
        if type(vid) is not int or vid < 0:  # bool subclasses int: reject true/false
            raise GraphFormatError(f"vertex id {vid!r} must be a nonnegative integer")
        if vid in seen:
            raise GraphFormatError(f"duplicate vertex id {vid}")
        seen[vid] = _weight(w, f"vertex {vid}")
    n = len(seen)
    if sorted(seen) != list(range(n)):
        raise GraphFormatError("vertex ids must be exactly 0..n-1")
    weights = [seen[v] for v in range(n)]
    triples: list[tuple[int, int, Fraction]] = []
    pairs: set[tuple[int, int]] = set()
    for entry in data.get("edges", []):
        u, v, w = _fields(entry, ("u", "v", "w"), "edge")
        if not (type(u) is int and type(v) is int):
            raise GraphFormatError(f"edge endpoints must be integers, got {entry!r}")
        if u == v:
            raise GraphFormatError(f"self-edge at vertex {u} not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) references unknown vertex")
        key = (min(u, v), max(u, v))
        if key in pairs:
            raise GraphFormatError(f"duplicate edge ({key[0]},{key[1]})")
        pairs.add(key)
        triples.append((u, v, _weight(w, f"edge ({u},{v})")))
    return WeightedGraph.build(weights, triples)


def loads_graph(text: str) -> WeightedGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}", exc.lineno) from None
    return graph_from_dict(data)


def load_graph(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_graph(fh.read())


def dumps_graph(g: WeightedGraph) -> str:
    return json.dumps(graph_to_dict(g), indent=2) + "\n"
