"""Kronecker covers, covering involutions, and quotients.

Cover labeling: vertex v of the base graph splits into v' = v and
v'' = v + n0 where n0 is the base vertex count, and each base edge uv
becomes the pair {u, v+n0}, {u+n0, v}.

A covering involution is checked, and its quotient built, by one pass over
the graph's edges (:func:`_orbit_pairs`), which both
:func:`kronecker_involution_failure` and :func:`quotient` call.  One walk
over the map (:func:`_vertex_clauses`) names the first vertex clause it
fails and labels its orbits; that pass and :func:`_cover_map` read it.
"""
from __future__ import annotations

from itertools import chain, repeat
from typing import Collection, Optional, Sequence

from .graphs import Edge, Graph, _at_least, _colouring, _components, _from_pairs
from .perms import Perm, is_automorphism, is_permutation


class NotKroneckerInvolution(ValueError):
    """Quotient was requested along a map that is not a covering involution."""


def kronecker_cover(g: Graph) -> Graph:
    """The tensor product with a single edge; always bipartite, doubles |V| and |E|."""
    n0 = g.vertex_count
    # Each base edge u < v < n0 gives the two pairs (u, v''), (v, u''), each
    # with its first end below n0 and its second at or above.  Filled from
    # g's sorted edges, each vertex x's list of pairs (x, y'') ascends in y,
    # so the lists, joined in vertex order, are in the canonical order.
    pairs: list[list[Edge]] = [[] for _ in range(n0)]
    for u, v in g.edges:
        pairs[u].append((u, v + n0))
        pairs[v].append((v, u + n0))
    edges = chain.from_iterable(pairs)
    # Every edge joins some x' < n0 to some y'' >= n0, so colouring v' with
    # 0 and v'' with 1 is proper; with no isolated base vertex each v'' has
    # a neighbour x', so each component's least vertex is some x' of colour
    # 0.  An isolated x (an empty list) leaves {x''} alone with colour 0:
    # then let the search colour the cover.
    if not all(pairs):
        return _from_pairs(2 * n0, edges)
    return _from_pairs(2 * n0, edges, colouring=(0,) * n0 + (1,) * n0)


def natural_swap(base_vertex_count: int) -> Perm:
    """The fixed-point-free involution v' <-> v'' of a cover on 2*n0 vertices."""
    n0 = _at_least("base vertex count", base_vertex_count, 0)
    return tuple((x + n0) % (2 * n0) for x in range(2 * n0))


def kronecker_involution_failure(g: Graph, p: Sequence[int]) -> Optional[str]:
    """None if p is a Kronecker involution of g, else the first failed clause.

    Clauses, in this order: p a permutation of g's vertices; g connected; g
    bipartite; p an automorphism; p an involution; no fixed vertex;
    color-reversing; no vertex mapped to a neighbor (a fixed edge would
    become a loop in the quotient, so the projection would not be a
    covering).  One pass over g's edges, :func:`_orbit_pairs`, decides the
    automorphism and fixed-edge clauses; see there.
    """
    return _orbit_pairs(g, p)[0]


def is_kronecker_involution(g: Graph, p: Sequence[int]) -> bool:
    return kronecker_involution_failure(g, p) is None


def quotient(g: Graph, p: Perm) -> Graph:
    """Contract the orbit pairs {x, p(x)} of a Kronecker involution.

    Orbits are labeled by the rank of their minimum element, so the result
    is deterministic.  The cover of the result is isomorphic to g again.
    The quotient's edges are the distinct orbit pairs of g's edges, which
    the clause check of :func:`kronecker_involution_failure` has already
    listed: one pass over g's edges both checks p and builds the quotient.
    """
    failure, keys = _orbit_pairs(g, p)
    if failure is not None:
        raise NotKroneckerInvolution(f"not a Kronecker involution: {failure}")
    # g is connected and bipartite and p a covering involution, so the
    # cover of the result is isomorphic to g and connected: a non-empty
    # result is connected, and not bipartite, or its cover would have two
    # components.
    n = g.vertex_count // 2
    edges = map(divmod, sorted(keys), repeat(n))
    if n == 0:
        return _from_pairs(0, edges)
    return _from_pairs(n, edges, components=(tuple(range(n)),), colouring=None)


def _orbit_pairs(g: Graph, p: Sequence[int]) -> tuple[Optional[str], Collection[int]]:
    """The first clause of :func:`kronecker_involution_failure` that p
    fails, or None, and, when p passes, the quotient's edges: the distinct
    pairs a < b of orbits joined by an edge of g, as keys a * (n/2) + b.

    The permutation, connected and bipartite clauses come first, then the
    three vertex clauses: involution, no fixed vertex, colour-reversing,
    which one walk, :func:`_vertex_clauses`, decides while it labels the
    orbits.  Only when it names a failure is p tested for the automorphism
    clause, which comes before them, by :func:`is_automorphism`, so p
    reports the first clause it fails in the documented order.

    A map that passes them is tested by counting instead.  Each edge of g
    goes to its unordered pair of orbits {x, p(x)}, as the walk labelled
    them; a loop pair is an edge {x, p(x)}, a fixed edge.
    Between two orbits {x, p(x)} and {y, p(y)} with x and y of colour 0,
    only {x, p(y)} and {p(x), y} can be edges, since g is bipartite and p
    reverses colours, and p swaps those two.  So p maps g's edges onto
    themselves, that is, p is an automorphism, exactly when each non-loop
    pair has both of its edges: when the distinct non-loop pairs number
    half the non-loop edges.  Then the distinct pairs are the quotient's
    edges, each once."""
    n = g.vertex_count
    if len(p) != n or not is_permutation(p):
        return "not a vertex permutation of g", ()
    if len(_components(g)) > 1:
        return "graph is not connected", ()
    colors = _colouring(g)
    if colors is None:
        return "graph is not bipartite", ()
    failure, orbit = _vertex_clauses(p, colors)
    if failure is not None:
        return (failure if is_automorphism(g, p) else "not an automorphism"), ()
    half = n // 2
    keys = set()
    loops = 0
    for u, v in g.edges:
        a, b = orbit[u], orbit[v]
        if a < b:
            keys.add(a * half + b)
        elif b < a:
            keys.add(b * half + a)
        else:
            loops += 1
    if 2 * len(keys) != len(g.edges) - loops:
        return "not an automorphism", ()
    if loops:
        return "maps a vertex to a neighbor (fixed edge)", ()
    return None, keys


def _vertex_clauses(p: Sequence[int], colors: Sequence[int]) -> tuple[Optional[str], list[int]]:
    """The first vertex clause that the permutation p fails, or None, and
    each vertex's orbit {x, p(x)}, labelled by the rank of the orbit's
    least element: the vertex labelling of :func:`quotient`.  One walk over
    p decides the clauses in their documented order: an involution, with
    no fixed vertex, colour-reversing.  Where p(x) > x, p(p(x)) = x must
    hold; the least vertex of any longer cycle fails it, so p is an
    involution exactly when none fails it.  Then each orbit {x, p(x)} is
    tested for colour reversal once, from x.  The walk labels every x <
    p(x), whichever clause p fails."""
    orbit = [0] * len(p)
    rank = 0
    cycle = fixed = kept = False
    for x, y in enumerate(p):
        if x < y:
            if p[y] != x:
                cycle = True
            elif colors[x] == colors[y]:
                kept = True
            orbit[x] = orbit[y] = rank
            rank += 1
        elif x == y:
            fixed = True
    failure = ("not an involution" if cycle else "has a fixed vertex" if fixed
               else "not color-reversing" if kept else None)
    return failure, orbit


def _cover_map(g: Graph, p: Sequence[int]) -> list[int]:
    """phi(x) = orbit(x) + n0 * colour(x) on the bipartite graph g, with
    n0 = |V(g)| / 2.  For a covering involution p of g it is an isomorphism
    of g onto ``kronecker_cover(quotient(g, p))``: an edge {x, y} of g with
    colour-0 end x goes to {orbit(x), orbit(y) + n0}, the cover's edge over
    the quotient edge {orbit(x), orbit(y)}.  The orbit labels are those of
    :func:`_vertex_clauses`, which labels every x < p(x) whatever p fails.
    For any other p, phi need not even be a bijection, so a caller that
    takes it as a witness checks it."""
    colors = _colouring(g)
    n0 = len(p) // 2
    return [o + n0 * c for o, c in zip(_vertex_clauses(p, colors)[1], colors)]
