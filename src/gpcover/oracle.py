"""Brute-force ground truth: automorphism enumeration, canonical forms,
isomorphism testing, and exhaustive covering-involution search.

Everything here is exact.  Searches are guided by equitable partition
refinement (1-dimensional color refinement) but never trust it alone:
automorphisms come from full backtracking and canonical forms minimize over
a complete individualization-refinement tree, with discovered automorphisms
used only to skip provably equivalent branches.

Covering involutions come from the same backtracking engine in a pruned
mode that applies the involution clauses at every node, so it never
enumerates the rest of the group; each result still passes the clause
checker in ``covers``.  Enumerating the whole group and filtering it is the
independent route that the tests compare against.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from collections import deque
from functools import lru_cache
from typing import Optional, Sequence

from .graphs import Graph, adjacency, adjacency_masks, degrees, encode_graph6, graph
from .covers import is_kronecker_involution, quotient
from .perms import Perm

DEFAULT_VERTEX_BOUND = 120
_BOUND_ENV = "GPCOVER_ORACLE_BOUND"


class SearchBoundExceeded(RuntimeError):
    """Graph exceeds the configured oracle vertex bound."""


def vertex_bound(bound: Optional[int] = None) -> int:
    """The explicit bound, else a positive integer from the environment,
    else DEFAULT_VERTEX_BOUND."""
    if bound is not None:
        return bound
    env = os.environ.get(_BOUND_ENV)
    if not env:
        return DEFAULT_VERTEX_BOUND
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{_BOUND_ENV} must be a positive integer, got {env!r}")
    return value


def _check_bound(g: Graph, bound: Optional[int]) -> None:
    limit = vertex_bound(bound)
    if g.vertex_count > limit:
        raise SearchBoundExceeded(
            f"graph has {g.vertex_count} vertices, oracle bound is {limit}"
        )


# ---------------------------------------------------------------------------
# Equitable partition refinement.

@dataclass(frozen=True)
class VertexPartition:
    """Ordered list of cells partitioning 0..n-1."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        flat = [v for cell in self.cells for v in cell]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("cells do not partition 0..n-1")

    @property
    def vertex_count(self) -> int:
        return sum(len(cell) for cell in self.cells)

    def is_discrete(self) -> bool:
        return all(len(cell) == 1 for cell in self.cells)


def unit_partition(n: int) -> VertexPartition:
    return VertexPartition((tuple(range(n)),) if n else ())


def _refine_cells(
    adj: Sequence[Sequence[int]], cells: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Coarsest equitable refinement: split cells by neighbor counts per cell
    until stable.  Subcells are ordered by signature, so the result depends
    only on the input partition up to relabeling."""
    n = sum(len(c) for c in cells)
    cell_of = [0] * n
    while True:
        for ci, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = ci
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                counts: dict[int, int] = {}
                for w in adj[v]:
                    cw = cell_of[w]
                    counts[cw] = counts.get(cw, 0) + 1
                sig = tuple(sorted(counts.items()))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(sorted(groups[sig])))
        if not changed:
            return new_cells
        cells = new_cells


def refine(g: Graph, p: VertexPartition) -> VertexPartition:
    """Coarsest stable refinement of p under "neighbor count in each cell"."""
    if p.vertex_count != g.vertex_count:
        raise ValueError("partition does not fit the graph")
    return VertexPartition(tuple(_refine_cells(adjacency(g), list(p.cells))))


# ---------------------------------------------------------------------------
# Automorphism enumeration.

def automorphisms(
    g: Graph,
    bound: Optional[int] = None,
    *,
    involution_colors: Optional[Sequence[int]] = None,
) -> list[Perm]:
    """The full automorphism group, or with ``involution_colors`` only its
    covering-involution candidates, lexicographically sorted.

    Backtracking over a BFS vertex order: each candidate image must respect
    the stable coloring and have, among already-used images, exactly the
    images of the already-mapped neighbors.  That bitmask equality enforces
    edge and non-edge consistency simultaneously, so leaves are exactly the
    automorphisms.  The search keeps its own stack, so its depth is not
    limited by Python's recursion limit.

    ``involution_colors`` gives a 0/1 side per vertex, such as
    ``bipartition(g)``.  The candidates are the automorphisms that are
    involutions, send every vertex to the other side, and map no vertex to
    itself or to a neighbor.  These constraints prune every node: an image
    must lie on the other side and outside the vertex's neighborhood, and
    choosing u -> x also fixes x -> u.  Because the partial map is then an
    involution on the mapped vertices, the bitmask test for u covers x's
    edges as well, so a vertex fixed as a partner is skipped at its BFS turn
    instead of branched on.
    """
    _check_bound(g, bound)
    n = g.vertex_count
    if n == 0:
        return [()]
    adj = adjacency(g)
    masks = adjacency_masks(g)
    cells = _refine_cells(adj, [tuple(range(n))])
    color = [0] * n
    for ci, cell in enumerate(cells):
        for v in cell:
            color[v] = ci

    pairs = involution_colors is not None
    if pairs:
        if len(involution_colors) != n:
            raise ValueError("involution_colors does not fit the graph")
        # An image keeps the refinement cell and flips the side.
        have = [2 * color[v] + involution_colors[v] for v in range(n)]
        want = [2 * color[v] + 1 - involution_colors[v] for v in range(n)]
    else:
        have = want = color
    # bit[mapping[w]] is 0 while w is unmapped (mapping[w] == -1).
    bit = [1 << v for v in range(n)] + [0]

    # BFS order so every non-root vertex has an earlier neighbor.
    pos = [-1] * n
    bfs_order: list[int] = []
    for start in range(n):
        if pos[start] != -1:
            continue
        pos[start] = len(bfs_order)
        bfs_order.append(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if pos[w] == -1:
                    pos[w] = len(bfs_order)
                    bfs_order.append(w)
                    queue.append(w)
    pivot = [
        next((w for w in adj[u] if pos[w] < pos[u]), -1) for u in bfs_order
    ]
    # The neighbors that may be mapped when a vertex's turn comes: the
    # earlier ones, or with partners also any later one.
    mapped_nbrs = [
        [w for w in adj[u] if pairs or pos[w] < t] for t, u in enumerate(bfs_order)
    ]

    results: list[Perm] = []
    mapping = [-1] * n
    used = 0
    # Images still to try at each depth; depth n is a leaf and has none.
    untried: list[list[int]] = [[] for _ in range(n + 1)]
    t = 0
    while True:
        if pairs:
            while t < n and mapping[bfs_order[t]] >= 0:
                t += 1
        images = untried[t]
        if t == n:
            results.append(tuple(mapping))
        else:
            u = bfs_order[t]
            req = 0
            for w in mapped_nbrs[t]:
                req |= bit[mapping[w]]
            blocked = used | masks[u] if pairs else used
            wu = want[u]
            for x in cells[color[u]] if pivot[t] < 0 else adj[mapping[pivot[t]]]:
                if not blocked & bit[x] and have[x] == wu and masks[x] & used == req:
                    images.append(x)
        # Back up to the deepest branching depth with an image left.  A
        # vertex fixed as a partner has its partner earlier in BFS order.
        while not images:
            t -= 1
            if t < 0:
                return sorted(results)
            u = bfs_order[t]
            x = mapping[u]
            if pairs:
                if pos[x] < t:
                    continue
                mapping[x] = -1
                used ^= bit[u]
            mapping[u] = -1
            used ^= bit[x]
            images = untried[t]
        x = images.pop()
        mapping[u] = x
        used |= bit[x]
        if pairs:
            mapping[x] = u
            used |= bit[u]
        t += 1


@lru_cache(maxsize=512)
def _kronecker_involutions_cached(g: Graph) -> tuple[Perm, ...]:
    from .graphs import bipartition, is_connected

    colors = bipartition(g) if g.vertex_count else None
    if colors is None or not is_connected(g):
        return ()
    candidates = automorphisms(g, g.vertex_count, involution_colors=colors)
    return tuple(p for p in candidates if is_kronecker_involution(g, p))


def kronecker_involutions(g: Graph, bound: Optional[int] = None) -> list[Perm]:
    """All covering involutions of g; empty unless g is connected bipartite."""
    _check_bound(g, bound)
    return list(_kronecker_involutions_cached(g))


# ---------------------------------------------------------------------------
# Canonical labeling.

def _canonical_edges(g: Graph) -> tuple[tuple[int, int], ...]:
    """Edge list of the canonically relabeled graph.

    Disconnected graphs are canonicalized per component and reassembled in
    sorted (size, edges) order, which is itself relabeling-invariant."""
    from .graphs import connected_components

    comps = connected_components(g)
    if len(comps) > 1:
        pieces = []
        for comp in comps:
            idx = {v: i for i, v in enumerate(comp)}
            sub = graph(
                len(comp),
                [(idx[u], idx[v]) for u, v in g.edges if u in idx],
            )
            pieces.append((len(comp), _canonical_edges_connected(sub)))
        pieces.sort()
        edges: list[tuple[int, int]] = []
        offset = 0
        for size, sub_edges in pieces:
            edges.extend((u + offset, v + offset) for u, v in sub_edges)
            offset += size
        return tuple(sorted(edges))
    return _canonical_edges_connected(g)


def _canonical_edges_connected(g: Graph) -> tuple[tuple[int, int], ...]:
    """Minimum, over all leaves of the individualization-refinement tree, of
    the relabeled sorted edge tuple.  Known automorphisms prune sibling
    branches at the root level (subtrees of vertices in one orbit enumerate
    the same edge tuples), and nodes whose partition already determines the
    edge set are emitted directly."""
    n = g.vertex_count
    adj = adjacency(g)
    base = _refine_cells(adj, [tuple(range(n))]) if n else []

    best: Optional[tuple[tuple[int, int], ...]] = None
    best_labeling: Optional[list[int]] = None

    uf = list(range(n))

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def note_automorphism(sigma: Sequence[int]) -> None:
        for x in range(n):
            rx, ry = find(x), find(sigma[x])
            if rx != ry:
                uf[rx] = ry

    def leaf(cells: list[tuple[int, ...]]) -> None:
        nonlocal best, best_labeling
        labeling = [0] * n
        for new, cell in enumerate(cells):
            labeling[cell[0]] = new
        edges = []
        for u, v in g.edges:
            lu, lv = labeling[u], labeling[v]
            edges.append((lu, lv) if lu < lv else (lv, lu))
        candidate = tuple(sorted(edges))
        if best is None or candidate < best:
            best = candidate
            best_labeling = labeling
        elif candidate == best and best_labeling is not None:
            inv_best = [0] * n
            for v, lab in enumerate(best_labeling):
                inv_best[lab] = v
            note_automorphism([inv_best[labeling[v]] for v in range(n)])

    def homogeneous(cells: list[tuple[int, ...]]) -> bool:
        # In an equitable partition all members of a cell have the same
        # neighbor count per cell, so one representative decides.  If every
        # cell is internally complete/empty and every cell pair is joined
        # completely or not at all, edges depend on cell membership only and
        # every discrete refinement below yields the same relabeled edges.
        cell_of = [0] * n
        for ci, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = ci
        for ci, cell in enumerate(cells):
            counts = [0] * len(cells)
            for w in adj[cell[0]]:
                counts[cell_of[w]] += 1
            if len(cell) > 1 and counts[ci] not in (0, len(cell) - 1):
                return False
            for cj, other in enumerate(cells):
                if cj != ci and counts[cj] not in (0, len(other)):
                    return False
        return True

    def rec(cells: list[tuple[int, ...]], depth: int) -> None:
        cells = _refine_cells(adj, cells)
        target = -1
        target_size = n + 1
        for ci, cell in enumerate(cells):
            if 1 < len(cell) < target_size:
                target, target_size = ci, len(cell)
        if target < 0:
            leaf(cells)
            return
        if homogeneous(cells):
            leaf([(v,) for cell in cells for v in cell])
            return
        cell = cells[target]
        done: list[int] = []
        for v in cell:
            if depth == 0 and any(find(v) == find(u) for u in done):
                continue
            child = (
                cells[:target]
                + [(v,), tuple(x for x in cell if x != v)]
                + cells[target + 1:]
            )
            rec(child, depth + 1)
            done.append(v)

    if n:
        rec(base, 0)
    return best if best is not None else ()


@lru_cache(maxsize=4096)
def _canonical_form_cached(g: Graph) -> bytes:
    return encode_graph6(graph(g.vertex_count, _canonical_edges(g))).encode("ascii")


def canonical_form(g: Graph, bound: Optional[int] = None) -> bytes:
    """Relabeling-invariant byte string (graph6 of the canonical labeling)."""
    _check_bound(g, bound)
    return _canonical_form_cached(g)


def is_isomorphic(g: Graph, h: Graph, bound: Optional[int] = None) -> bool:
    if g.vertex_count != h.vertex_count or len(g.edges) != len(h.edges):
        return False
    if sorted(degrees(g)) != sorted(degrees(h)):
        return False
    return canonical_form(g, bound) == canonical_form(h, bound)


def quotients_up_to_iso(g: Graph, bound: Optional[int] = None) -> list[Graph]:
    """One quotient per isomorphism class, over all covering involutions,
    ordered by canonical form."""
    classes: dict[bytes, Graph] = {}
    for w in kronecker_involutions(g, bound):
        q = quotient(g, w)
        classes.setdefault(canonical_form(q), q)
    return [classes[cf] for cf in sorted(classes)]
