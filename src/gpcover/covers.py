"""Kronecker covers, covering involutions, and quotients.

Cover labeling: vertex v of the base graph splits into v' = v and
v'' = v + n0 where n0 is the base vertex count, and each base edge uv
becomes the pair {u, v+n0}, {u+n0, v}.
"""
from __future__ import annotations

from itertools import chain
from operator import eq
from typing import Optional, Sequence

from .graphs import Graph, _colouring, _components, _from_pairs, _integer
from .perms import Perm, _maps_edges_into, is_permutation


class NotKroneckerInvolution(ValueError):
    """Quotient was requested along a map that is not a covering involution."""


def kronecker_cover(g: Graph) -> Graph:
    """The tensor product with a single edge; always bipartite, doubles |V| and |E|."""
    n0 = g.vertex_count
    # Each base edge u < v < n0 gives two distinct pairs, each normalised
    # with its first end below n0 and its second at or above.  Every edge
    # joins some x' < n0 to some y'' >= n0, so colouring v' with 0 and v''
    # with 1 is proper; with no isolated base vertex each v'' has a
    # neighbour x', so each component's least vertex is some x' of colour 0.
    # An isolated x leaves {x''} alone with colour 0: then let the search
    # colour the cover.
    edges = [(u, v + n0) for u, v in g.edges] + [(v, u + n0) for u, v in g.edges]
    if len(set(chain.from_iterable(g.edges))) < n0:
        return _from_pairs(2 * n0, edges)
    return _from_pairs(2 * n0, edges, colouring=(0,) * n0 + (1,) * n0)


def natural_swap(base_vertex_count: int) -> Perm:
    """The fixed-point-free involution v' <-> v'' of a cover on 2*n0 vertices."""
    n0 = _integer("base vertex count", base_vertex_count)
    if n0 < 0:
        raise ValueError(f"base vertex count must be at least 0, got {n0}")
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
    if len(_components(g)) > 1:
        return "graph is not connected"
    colors = _colouring(g)
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
    colors = _colouring(g)
    # p passed the clause checker, so the edge {orbit(x), orbit(y)} has just
    # the two preimages {x, y} and {p(x), p(y)}, and colour reversal makes
    # their colour-0 ends lie in opposite orbits: keep the one whose
    # colour-0 end has the lower orbit, which gives each edge once, normalised.
    edges = []
    for u, v in g.edges:
        a, b = (orbit[v], orbit[u]) if colors[u] else (orbit[u], orbit[v])
        if a < b:
            edges.append((a, b))
    # g is connected and bipartite and p a covering involution, so the
    # cover of the result is isomorphic to g and connected: a non-empty
    # result is connected, and not bipartite, or its cover would have two
    # components.
    n = g.vertex_count // 2
    if n == 0:
        return _from_pairs(0, edges)
    return _from_pairs(n, edges, components=(tuple(range(n)),), colouring=None)


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
    return [o + n0 * c for o, c in zip(_orbits(p), _colouring(g))]
