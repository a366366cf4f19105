"""Kronecker covers, covering involutions, and quotients.

Cover labeling: vertex v of the base graph splits into v' = v and
v'' = v + n0 where n0 is the base vertex count, and each base edge uv
becomes the pair {u, v+n0}, {u+n0, v}.
"""
from __future__ import annotations

from operator import eq
from typing import Optional, Sequence

from .graphs import Graph, _from_pairs, _search
from .perms import Perm, _maps_edges_into, is_permutation


class NotKroneckerInvolution(ValueError):
    """Quotient was requested along a map that is not a covering involution."""


def kronecker_cover(g: Graph) -> Graph:
    """The tensor product with a single edge; always bipartite, doubles |V| and |E|."""
    n0 = g.vertex_count
    # Each base edge u < v < n0 gives two distinct pairs, each normalised
    # with its first end below n0 and its second at or above.
    return _from_pairs(2 * n0, [(u, v + n0) for u, v in g.edges] + [(v, u + n0) for u, v in g.edges])


def natural_swap(base_vertex_count: int) -> Perm:
    """The fixed-point-free involution v' <-> v'' of a cover on 2*n0 vertices."""
    n0 = base_vertex_count
    return tuple((x + n0) % (2 * n0) for x in range(2 * n0))


def kronecker_involution_failure(g: Graph, p: Sequence[int]) -> Optional[str]:
    """None if p is a Kronecker involution of g, else the first failed clause.

    Clauses: g connected; g bipartite; p an automorphism; p an involution;
    no fixed vertex; color-reversing; no vertex mapped to a neighbor (a
    fixed edge would become a loop in the quotient, so the projection
    would not be a covering).
    """
    if len(p) != g.vertex_count or not is_permutation(p):
        return "not a vertex permutation of g"
    components, colors, _ = _search(g)
    if len(components) > 1:
        return "graph is not connected"
    if colors is None:
        return "graph is not bipartite"
    if not _maps_edges_into(g, p, g):  # p is a permutation, checked above
        return "not an automorphism"
    if any(p[p[x]] != x for x in range(g.vertex_count)):
        return "not an involution"
    if any(map(eq, p, range(g.vertex_count))):
        return "has a fixed vertex"
    if any(map(eq, map(colors.__getitem__, p), colors)):
        return "not color-reversing"
    if any(p[u] == v for u, v in g.edges):
        return "maps a vertex to a neighbor (fixed edge)"
    return None


def is_kronecker_involution(g: Graph, p: Sequence[int]) -> bool:
    return kronecker_involution_failure(g, p) is None


def quotient(g: Graph, p: Perm) -> Graph:
    """Contract the orbit pairs {x, p(x)} of a Kronecker involution.

    Orbits are labeled by the rank of their minimum element, so the result
    is deterministic.  The cover of the result is isomorphic to g again.
    """
    failure = kronecker_involution_failure(g, p)
    if failure is not None:
        raise NotKroneckerInvolution(f"not a Kronecker involution: {failure}")
    orbit = _orbits(p)
    colors = _search(g)[1]
    # p passed the clause checker, so the edge {orbit(x), orbit(y)} has just
    # the two preimages {x, y} and {p(x), p(y)}, and colour reversal makes
    # their colour-0 ends lie in opposite orbits: keep the one whose
    # colour-0 end has the lower orbit, which gives each edge once, normalised.
    edges = []
    for u, v in g.edges:
        a, b = (orbit[v], orbit[u]) if colors[u] else (orbit[u], orbit[v])
        if a < b:
            edges.append((a, b))
    return _from_pairs(g.vertex_count // 2, edges)


def _orbits(p: Sequence[int]) -> list[int]:
    """Each vertex's orbit {x, p(x)} under the fixed-point-free involution
    p, labelled by the rank of the orbit's minimum element: the vertex
    labelling of :func:`quotient`."""
    orbit = [0] * len(p)
    rank = 0
    for x, y in enumerate(p):
        if x < y:
            orbit[x] = orbit[y] = rank
            rank += 1
    return orbit


def _cover_map(g: Graph, p: Sequence[int]) -> list[int]:
    """phi(x) = orbit(x) + n0 * colour(x) on the bipartite graph g, with
    n0 = |V(g)| / 2.  For a covering involution p of g it is an isomorphism
    of g onto ``kronecker_cover(quotient(g, p))``: an edge {x, y} of g with
    colour-0 end x goes to {orbit(x), orbit(y) + n0}, the cover's edge over
    the quotient edge {orbit(x), orbit(y)}.  For any other p it need not
    even be a bijection, so a caller that takes it as a witness checks it."""
    n0 = len(p) // 2
    return [o + n0 * c for o, c in zip(_orbits(p), _search(g)[1])]
