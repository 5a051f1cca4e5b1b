"""Simple graphs on 0..n-1 with bitmask adjacency, plus exact clique search.

All searches are deterministic: vertices are explored in index order, so
witnesses are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph; adj[v] is the neighbour bitmask of v."""

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return cls(n, tuple((full ^ (1 << v)) for v in range(n)))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, u + 1 + d) for u in range(self.n) for d in bits(self.adj[u] >> (u + 1))]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def complement(self) -> "SimpleGraph":
        full = (1 << self.n) - 1
        return SimpleGraph(
            self.n, tuple((full ^ self.adj[v]) & ~(1 << v) for v in range(self.n))
        )


def color_order(adj: Sequence[int], p: int) -> list[tuple[int, int]]:
    """Sequential greedy colouring of the vertex mask p: (vertex, colour) pairs.

    Colour c takes, in index order, every vertex left by colours below c that
    has no neighbour already in c, so each class is independent and a clique
    inside p has at most max-colour vertices.
    """
    order: list[tuple[int, int]] = []
    color = 0
    rest = p
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail &= ~adj[v] & ~low
            rest ^= low
            order.append((v, color))
    return order


def max_clique(
    adj: Sequence[int],
    candidates: int | None = None,
    stop_at: int | None = None,
) -> tuple[int, int]:
    """Exact maximum clique within a candidate mask: (size, vertex mask).

    Branch and bound with a greedy colouring bound. If stop_at is given the
    search may return early once a clique of that size has been found
    (useful as a pure existence test). Exponential worst case; intended for
    the desk-scale instances this engine works with.
    """
    n = len(adj)
    if candidates is None:
        candidates = (1 << n) - 1
    best_size = 0
    best_mask = 0

    def expand(r_mask: int, r_size: int, p: int) -> None:
        nonlocal best_size, best_mask
        if p == 0:
            if r_size > best_size:
                best_size, best_mask = r_size, r_mask
            return
        order = color_order(adj, p)
        for v, bound in reversed(order):
            if stop_at is not None and best_size >= stop_at:
                return
            if r_size + bound <= best_size:
                return
            vbit = 1 << v
            expand(r_mask | vbit, r_size + 1, p & adj[v])
            p &= ~vbit

    expand(0, 0, candidates)
    del expand  # it refers to itself through its closure cell: break the cycle
    return best_size, best_mask


def clique_number(g: SimpleGraph) -> int:
    """Exact clique number; 0 on the empty vertex set.

    Practical up to n of about 64 at full density; much larger sparse
    graphs are fine because of the colouring bound.
    """
    return max_clique(g.adj)[0]


def has_clique(adj: Sequence[int], k: int, candidates: int | None = None) -> bool:
    """Exact test for a clique of size k inside the candidate mask."""
    size, _ = max_clique(adj, candidates, stop_at=k)
    return size >= k


def maximal_cliques(adj: Sequence[int]) -> list[int]:
    """All maximal cliques (as vertex masks), Bron-Kerbosch with pivoting.

    Output order is deterministic (depth-first, ascending vertex index).
    """
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot = vertex of p|x with most neighbours in p (smallest index wins ties)
        pivot = -1
        pivot_deg = -1
        for v in bits(p | x):
            deg = (p & adj[v]).bit_count()
            if deg > pivot_deg:
                pivot, pivot_deg = v, deg
        for v in bits(p & ~adj[pivot]):
            vbit = 1 << v
            bk(r | vbit, p & adj[v], x & adj[v])
            p &= ~vbit
            x |= vbit

    bk(0, (1 << len(adj)) - 1, 0)
    del bk  # break the closure's reference cycle
    return out


def lex_cliques(adj: Sequence[int], pool: int, least: int, most: int) -> Iterator[tuple[int, ...]]:
    """Cliques inside the vertex mask pool, in lexicographic preorder.

    Yields, as sorted tuples, every clique of at most `most` vertices that
    can still grow within pool to at least `least`: the empty clique first,
    and each clique right after its parent. A clique whose size plus its
    remaining candidates falls below `least` is pruned with its subtree.
    """
    if most < 0 or pool.bit_count() < least:
        return
    yield ()
    clique: list[int] = []
    rest = [pool]  # rest[d]: the candidates not yet tried as clique vertex d
    while rest:
        d = len(clique)
        cand = rest[d]
        # later children have fewer candidates: stop once too few remain
        if not cand or d == most or d + cand.bit_count() < least:
            rest.pop()
            if clique:
                clique.pop()
            continue
        low = cand & -cand
        rest[d] = cand = cand ^ low
        v = low.bit_length() - 1
        below = cand & adj[v]
        if d + 1 + below.bit_count() >= least:
            clique.append(v)
            rest.append(below)
            yield tuple(clique)


def greedy_clique_cover(g: SimpleGraph) -> int:
    """Greedy partition of the vertices into cliques; its size bounds alpha above.

    The cliques are the colour classes of the complement under color_order,
    the same partition as first-fit over the vertices in index order.
    """
    order = color_order(g.complement().adj, (1 << g.n) - 1)
    return order[-1][1] if order else 0


def independence_number(g: SimpleGraph) -> int:
    """Exact independence number via the complement's clique number."""
    return clique_number(g.complement())
