"""Brute-force ground truth: automorphism enumeration, canonical forms,
isomorphism testing, and exhaustive covering-involution search.

Everything here is exact.  Searches are guided by equitable partition
refinement (1-dimensional color refinement) but never trust it alone:
automorphisms come from backtracking that checks every edge, and a canonical
form is the least leaf certificate of the individualization-refinement tree.  That search
prunes only subtrees that provably hold no smaller certificate, by three
rules of McKay & Piperno (2014): automorphism backjumps to the best leaf,
a node invariant (the cell sizes along the path) compared with the best
leaf's, and orbits of known automorphisms at every node.  One store holds
those: the automorphisms that the graph's builder recorded (GP(n,k)
records alpha, beta and sometimes gamma), each checked to be an
automorphism before it is used, and every automorphism found at a leaf.
Each node joins the stored maps that fix its path.  The least certificate of a
connected graph is kept on that graph, as its covering involutions are.
An isomorphism test takes the second graph's and walks the first graph's
tree toward it, stopping at the first leaf that meets it or at the first
leaf or node that falls below it; the same walk uncut is the canonical-form
search, so there is one search engine.  Quotients are grouped into
isomorphism classes by such walks toward each class's first quotient, so a
class costs one least certificate and every other quotient one walk; only
two or more classes take canonical forms, to be ordered, and a lone
quotient is not searched at all.

A partition has one format throughout: the arrays [order, pos, start_of,
size], in which each cell is a run of order named by its start position.
Refinement changes them in place.  It takes its splitters from a queue and
re-examines only the cells next to a cell that just split; a split moves
only the splitter's neighbors, so cells keep no sorted order.  The root of
each search is refined from the unit partition; a child in the
canonical-form tree copies its parent's arrays, individualizes one vertex
and queues only that singleton, because the parent was already equitable.
Every choice the refinement makes depends on cell positions and neighbor
counts, never on vertex names, so the sequence of cells commutes with
relabeling, which the canonical form relies on.

One backtracking loop finds automorphisms, under a partition on each side
that every image must respect; both of its modes read every neighbor.  The
full group is enumerated as cosets of the stabilizer of r, the first
member of the canonical search's target cell (vertex 0 in every GP graph
and Kronecker cover), from that search's root node: its child iterator
gives r and then each image of r not yet decided by the automorphisms
found so far, individualized and refined.  One search finds the
stabilizer, and one per image stops at its first leaf.  Covering
involutions come from the same loop in a pruned mode that applies the
involution clauses at every node, with the graph's own 2-coloring as the
sides, so it never enumerates the rest of the group.
Below the first vertex r's image x0 that mode also keeps distances: an
involutive automorphism swaps r and x0, so it sends u to a vertex x with
dist(x0, x) = dist(r, u) and dist(r, x) = dist(x0, u): one row from r and
one from each x0, both from ``graphs._breadth_first``, compared entry by
entry.  Each result still passes the clause checker in ``covers`` and is
kept on the graph.
Enumerating the whole group and filtering it is the independent route that
the tests compare against.  Neither search reads the recorded
automorphisms, so both stay independent of the builders.

Every search refuses a graph with more vertices than :func:`vertex_bound`,
which only ``GPCOVER_ORACLE_BOUND`` sets (default 120).  Sweeps call
:func:`check_bound` on their largest graph before the first search.
"""
from __future__ import annotations

import os
from collections import deque
from typing import Iterator, Optional, Sequence

from .graphs import (
    Graph, _breadth_first, _colouring, _components, _from_pairs, _once_per_graph,
    _recorded_automorphisms, _search, adjacency, adjacency_masks, bipartition,
    connected_components, degrees, encode_graph6, is_connected,
)
from .covers import is_kronecker_involution, quotient
from .perms import Perm, is_automorphism

DEFAULT_VERTEX_BOUND = 120
_BOUND_ENV = "GPCOVER_ORACLE_BOUND"


class SearchBoundExceeded(RuntimeError):
    """Graph exceeds the configured oracle vertex bound."""


def vertex_bound() -> int:
    """The oracle vertex bound: a positive integer from GPCOVER_ORACLE_BOUND,
    else DEFAULT_VERTEX_BOUND.  It is the only setting of the bound."""
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


def check_bound(vertex_count: int) -> None:
    """Refuse a search on vertex_count vertices past the oracle bound."""
    limit = vertex_bound()
    if vertex_count > limit:
        raise SearchBoundExceeded(
            f"graph has {vertex_count} vertices, oracle bound is {limit} "
            f"(set by {_BOUND_ENV})"
        )


# ---------------------------------------------------------------------------
# Equitable partition refinement.

def _refine(adj: Sequence[Sequence[int]], part: list[list[int]], queue: list[int]) -> None:
    """Refine the partition part = [order, pos, start_of, size] in place to
    its coarsest equitable refinement, by a splitter queue seeded with the
    cell starts in queue (McKay 1981; McKay & Piperno 2014).

    The partition is one vertex array, order, in which each cell is a run
    named by its start position: pos[v] is v's position, start_of[v] the
    start of v's cell, and size[s] the length of the cell starting at s,
    0 where no cell starts.  Splitters leave a FIFO queue one at a time;
    every non-singleton cell holding a neighbor of the splitter is split by
    its members' neighbor counts into the splitter.  With every cell queued
    first, the partition is equitable once the queue is empty.

    Queuing only [s] is enough when the partition was equitable until one
    vertex v of a cell C was moved to C's front as the singleton cell s:
    a vertex's count into C minus v is its count into C, which is the same
    across its cell, minus its count into (v,).

    A split moves only the splitter's neighbors: each is swapped into the
    tail of its cell with an untouched member found there, and the tail is
    grouped by ascending count.  The members with count 0 stay in place as
    the first piece; one is visited only if it sat in that tail.  So cells
    keep no sorted order: the order inside a cell is an accident of the
    splits, and only the set of each cell is promised.

    The sequence of cells commutes with relabeling, because every choice
    depends only on positions and counts, never on vertex names: touched
    cells split in position order, pieces go in ascending count order, a
    split cell that was queued has all its pieces queued and any other split
    cell all but its first largest piece.  Leaving that piece out is sound
    for the same reason as the singleton seed: counts into it are counts
    into the old cell minus counts into the other pieces.  A cell that never
    splits keeps its order.
    """
    order, pos, start_of, size = part
    n = len(order)
    queue = deque(queue)
    queued = [False] * n
    for s in queue:
        queued[s] = True
    count = [0] * n
    while queue:
        s = queue.popleft()
        queued[s] = False
        singleton = size[s] == 1  # then every touched count is 1
        if singleton:
            touched = adj[order[s]]
            for w in touched:
                count[w] = 1
        else:
            touched = []
            for u in order[s:s + size[s]]:
                for w in adj[u]:
                    if not count[w]:
                        touched.append(w)
                    count[w] += 1
        hit: dict[int, list[int]] = {}
        for w in touched:
            c = start_of[w]
            if size[c] > 1:
                if c in hit:
                    hit[c].append(w)
                else:
                    hit[c] = [w]
        for c in sorted(hit) if len(hit) > 1 else hit:
            members = hit[c]
            m = len(members)
            rest = size[c] - m  # members with count 0
            split_by_count = not singleton and len({count[w] for w in members}) > 1
            if not (rest or split_by_count):
                continue
            # Swap the touched members into the tail of the cell, each with
            # an untouched member found there.
            tail = j = c + rest
            for w in members:
                p = pos[w]
                if p < tail:
                    while count[order[j]]:
                        j += 1
                    x = order[j]
                    order[p] = x
                    pos[x] = p
                    order[j] = w
                    pos[w] = j
                    j += 1
            size[c] = rest
            if not split_by_count:
                # Two pieces: queue the tail unless it is the first largest
                # of an unqueued cell.
                size[tail] = m
                for w in members:
                    start_of[w] = tail
                q = tail if queued[c] or rest >= m else c
                queued[q] = True
                queue.append(q)
                continue
            groups: dict[int, list[int]] = {}
            for w in members:
                groups.setdefault(count[w], []).append(w)
            pieces = [c] if rest else []
            p = tail
            for k in sorted(groups):
                group = groups[k]
                pieces.append(p)
                size[p] = len(group)
                for w in group:
                    order[p] = w
                    pos[w] = p
                    start_of[w] = pieces[-1]
                    p += 1
            sizes = [size[q] for q in pieces]
            largest = sizes.index(max(sizes))
            queue_all = queued[c]
            for i, q in enumerate(pieces):
                if not queued[q] and (queue_all or i != largest):
                    queued[q] = True
                    queue.append(q)
        for w in touched:
            count[w] = 0


def _equitable(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """The coarsest equitable partition of a graph on n >= 1 vertices."""
    n = len(adj)
    part = [list(range(n)), list(range(n)), [0] * n, [n] + [0] * (n - 1)]
    _refine(adj, part, [0])
    return part


# ---------------------------------------------------------------------------
# Automorphism enumeration.

def _individualized(adj: Sequence[Sequence[int]], part: list[list[int]], v: int) -> list[list[int]]:
    """A copy of the equitable partition part in which v moves to the front
    of its cell, which must not be a singleton, as a singleton cell of its
    own, refined from that singleton."""
    child = [a[:] for a in part]
    order, pos, start_of, size = child
    s = start_of[v]
    rest = [x for x in order[s:s + size[s]] if x != v]
    order[s] = v
    pos[v] = s
    for p, x in enumerate(rest, s + 1):
        order[p] = x
        pos[x] = p
        start_of[x] = s + 1
    size[s] = 1
    size[s + 1] = len(rest)
    _refine(adj, child, [s])
    return child


def _find(uf: list[int], x: int) -> int:
    while uf[x] != x:
        uf[x] = uf[uf[x]]
        x = uf[x]
    return x


def _join(uf: list[int], gamma: Sequence[int]) -> None:
    """Merge the union-find uf's classes along the permutation gamma."""
    for x, y in enumerate(gamma):
        if x != y:
            rx, ry = _find(uf, x), _find(uf, y)
            if rx != ry:
                uf[rx] = ry


def _backtrack(g, domain, image, sides) -> Iterator[Perm]:
    """The automorphisms of g that map the cells of the partition domain onto
    the cells of the partition image at the same starts, yielded as found.

    Backtracking over the visit order of g's breadth-first search in
    ``graphs``, component by component from vertex 0: each candidate image
    of u must lie in the image cell that starts at u's domain cell start, be
    unused, and have, among already-used images, exactly the images of u's
    already-mapped neighbors.  Both modes read every neighbor of u, and an
    unmapped one adds nothing.  That bitmask equality enforces edge and
    non-edge consistency simultaneously, so leaves are exactly the
    automorphisms.  A component root takes its candidates from that image
    cell, any other vertex from the neighbors of its pivot, an earlier
    neighbor, under the map.  A singleton image cell thus fixes a root's
    image.

    With sides (a 0/1 side per vertex; domain and image must then be one
    partition) only the covering-involution candidates are leaves: an image
    must also lie on the other side and outside the vertex's neighborhood,
    and choosing u -> x also fixes x -> u.  Because the partial map is then
    an involution on the mapped vertices, the bitmask test for u covers x's
    edges as well, so a vertex fixed as a partner is skipped at its BFS turn
    instead of branched on; without sides none is mapped before its turn.
    Once the first vertex r has its image x0, every later u -> x must also
    keep distances to both: dist(x0, x) = dist(r, u), since an automorphism
    sends r to x0, and dist(r, x) = dist(x0, u), since an involution sends
    x0 back to r.  The two distance rows come from ``graphs._breadth_first``
    and are compared entry by entry; an unreachable vertex has distance -1
    in both, so disconnected graphs stay exact.

    The search keeps its own stack, so its depth is not limited by Python's
    recursion limit."""
    adj = adjacency(g)
    masks = adjacency_masks(g)
    bfs_order = _search(g)[2]
    n = len(bfs_order)
    start = domain[2]
    cells, _, have, cell_size = image
    want = start
    pairs = sides is not None
    if pairs:
        # An image keeps the refinement cell and flips the side.
        have = [2 * have[v] + sides[v] for v in range(n)]
        want = [2 * start[v] + 1 - sides[v] for v in range(n)]
    # Distances from r and x0: one zero row, which passes all, until x0 is chosen.
    from_r = from_x0 = [0] * n
    pos = [0] * n
    for t, u in enumerate(bfs_order):
        pos[u] = t
    pivot = [
        next((w for w in adj[u] if pos[w] < pos[u]), -1) for u in bfs_order
    ]
    # bit[mapping[w]] is 0 while w is unmapped (mapping[w] == -1).
    bit = [1 << v for v in range(n)] + [0]

    mapping = [-1] * n
    used = 0
    # Images still to try at each depth; depth n is a leaf and has none.
    untried: list[list[int]] = [[] for _ in range(n + 1)]
    t = 0
    while True:
        while t < n and mapping[bfs_order[t]] >= 0:  # a partner, already fixed
            t += 1
        images = untried[t]
        if t == n:
            yield tuple(mapping)
        else:
            u = bfs_order[t]
            req = 0
            for w in adj[u]:
                req |= bit[mapping[w]]
            blocked = used | masks[u] if pairs else used
            wu = want[u]
            r_u, x0_u = from_r[u], from_x0[u]
            s = start[u]
            for x in cells[s:s + cell_size[s]] if pivot[t] < 0 else adj[mapping[pivot[t]]]:
                if (not blocked & bit[x] and have[x] == wu and from_x0[x] == r_u
                        and from_r[x] == x0_u and masks[x] & used == req):
                    images.append(x)
        # Back up to the deepest branching depth with an image left.  A
        # vertex fixed as a partner has its partner earlier in BFS order.
        while not images:
            t -= 1
            if t < 0:
                return
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
            if t == 0:  # u is r and x its image x0
                if from_r is from_x0:  # the first x0: r's row is still zero
                    from_r = [-1] * n
                    _breadth_first(adj, u, from_r)
                from_x0 = [-1] * n
                _breadth_first(adj, x, from_x0)
        t += 1


def automorphisms(g: Graph, *, involutions: bool = False) -> list[Perm]:
    """The full automorphism group, or with ``involutions`` only its
    covering-involution candidates, lexicographically sorted.

    Both modes run one backtracking search, :func:`_backtrack`, over g's BFS
    vertex order in which every image must respect an equitable partition.

    The full group is enumerated as cosets of the stabilizer of a vertex r:
    Aut(g) is the union of t_x Stab(r) over the orbit of r, where t_x is any
    automorphism sending r to x (McKay & Piperno 2014).  The root is the
    canonical search's :class:`_Node` on the coarsest equitable partition's
    target cell, and r is that cell's first member (vertex 0 in every
    regular graph, so in every GP graph and Kronecker cover); a discrete
    partition leaves one search.  The first child from :func:`_next_child`
    is r individualized and refined; every automorphism fixing r maps that
    partition onto itself, so Stab(r) is the search with it on both sides.
    Each later child is the next image x of r that Stab(r) and the leaves
    found so far, joined into the node's orbits, do not join to an earlier
    child.  An automorphism sending r to x maps r's partition onto x's
    partition cell by cell, so x is rejected if the cell sizes differ, and
    else one search for a first leaf decides it.  The orbit's coset
    representatives are then products of the leaves found, along a BFS of
    the orbit from r (a Schreier transversal).

    With ``involutions`` the sides are g's own 2-coloring,
    ``bipartition(g)``, and a graph that has none has no candidates.  The
    candidates are the automorphisms that are involutions, send every
    vertex to the other side, and map no vertex to itself or to a neighbor.
    They come from one search over the coarsest equitable partition that
    applies those clauses at every node, so the rest of the group is never
    enumerated.  Once r has its image x0, that search also keeps every
    vertex's distances to r and x0, swapped: u may go to x only if
    dist(x0, x) = dist(r, u) and dist(r, x) = dist(x0, u), with -1 for an
    unreachable vertex, so a disconnected graph is searched exactly too.
    The whole-group mode's rows stay zero; there the BFS order and the
    neighbourhood test already force those distances.
    """
    n = g.vertex_count
    check_bound(n)
    sides = bipartition(g) if involutions else None
    if involutions and sides is None:
        return []
    if n == 0:
        return [()]
    adj = adjacency(g)
    root = _equitable(adj)
    if involutions or max(root[3]) == 1:  # a discrete partition: one search
        return sorted(_backtrack(g, root, root, sides))

    node = _Node(root, list(range(n)))
    r, fixed = _next_child(adj, node)
    stabilizer = list(_backtrack(g, fixed, fixed, None))
    for h in stabilizer:
        _join(node.orbits, h)
    leaves: list[Perm] = []  # the first leaf of each root image that has one
    for _, part in iter(lambda: _next_child(adj, node), None):
        leaf = next(_backtrack(g, fixed, part, None), None) if part[3] == fixed[3] else None
        if leaf is not None:
            leaves.append(leaf)
            _join(node.orbits, leaf)

    generators = stabilizer + leaves
    transversal = {r: tuple(range(n))}
    reached = [r]
    for y in reached:
        t = transversal[y]
        for h in generators:
            z = h[y]
            if z not in transversal:
                transversal[z] = tuple(map(h.__getitem__, t))  # h after t
                reached.append(z)
    return sorted(
        tuple(map(t.__getitem__, h)) for t in transversal.values() for h in stabilizer
    )


def kronecker_involutions(g: Graph) -> list[Perm]:
    """All covering involutions of g; empty unless g is connected bipartite.

    The search runs once per Graph instance, and its result is kept on it."""
    return list(_kronecker_involutions(g))


@_once_per_graph
def _kronecker_involutions(g: Graph) -> tuple[Perm, ...]:
    if len(_components(g)) > 1 or _colouring(g) is None:
        return ()
    candidates = automorphisms(g, involutions=True)
    return tuple(p for p in candidates if is_kronecker_involution(g, p))


# ---------------------------------------------------------------------------
# Canonical labeling.

@_once_per_graph
def _canonical_edges(g: Graph) -> tuple[tuple[int, int], ...]:
    """Edge list of the canonically relabeled graph, kept on g.

    Disconnected graphs are canonicalized per component and reassembled in
    sorted (size, edges) order, which is itself relabeling-invariant."""
    comps = connected_components(g)
    if len(comps) == 1:
        return _least_certificate(g)[1]
    searched: dict[Graph, Graph] = {}  # each distinct subgraph, searched once
    pieces = []
    for comp in comps:
        idx = {v: i for i, v in enumerate(comp)}
        # comp is a sorted component and idx is increasing on it, so g's
        # distinct edges inside comp map to distinct valid pairs.
        sub = _from_pairs(len(comp), [(idx[u], idx[v]) for u, v in g.edges if u in idx])
        sub = searched.setdefault(sub, sub)
        pieces.append((len(comp), _least_certificate(sub)[1]))
    pieces.sort()
    edges: list[tuple[int, int]] = []
    offset = 0
    for size, sub_edges in pieces:
        edges.extend((u + offset, v + offset) for u, v in sub_edges)
        offset += size
    return tuple(sorted(edges))


class _Node:
    """An inner node of the canonical-form search tree on the current path,
    or the root of the whole-group enumeration in :func:`automorphisms`.

    ``part`` is the node's partition, never discrete, which the search
    never changes once the node exists; ``start`` is the start of its
    target cell, the first smallest non-singleton cell, whose members are
    individualized in turn.  ``orbits`` is the union-find of the known
    automorphisms that fix the path's individualized vertices above this
    node: the recorded ones (:func:`_known_automorphisms`) and those found
    at leaves, both those stored when the node was made and those found
    while it is on the path."""

    __slots__ = ("part", "start", "untried", "done", "orbits")

    def __init__(self, part, orbits):
        size = part[3]
        start = min((z, s) for s, z in enumerate(size) if z > 1)[1]
        self.part = part
        self.start = start
        self.untried = iter(part[0][start:start + size[start]])
        self.done: list[int] = []
        self.orbits = orbits


def _homogeneous(adj: Sequence[Sequence[int]], part: list[list[int]]) -> bool:
    """Whether edges depend on cell membership only: every cell is complete
    or empty inside and every pair of cells is joined completely or not at
    all.  Then every discrete refinement below yields the same relabeled
    edges.  The partition is equitable, so one member per cell decides."""
    order, _, start_of, size = part
    s = 0
    while s < len(order):
        counts: dict[int, int] = {}
        for w in adj[order[s]]:
            c = start_of[w]
            counts[c] = counts.get(c, 0) + 1
        for c, k in counts.items():
            if k != size[c] - (c == s):
                return False
        s += size[s]
    return True


def _relabeled_edges(g: Graph, pos: list[int]) -> tuple[tuple[int, int], ...]:
    """g's sorted edge tuple after relabeling each vertex v as pos[v]."""
    edges = []
    for u, v in g.edges:
        lu, lv = pos[u], pos[v]
        edges.append((lu, lv) if lu < lv else (lv, lu))
    return tuple(sorted(edges))


def _next_child(adj, node: _Node):
    """The next child of node outside the orbits of its explored siblings,
    as (vertex, partition), or None.  The child's partition is a copy of
    node's in which the vertex moves to the front of the target cell as a
    singleton, refined from that singleton.  Both trees step with it; at
    the whole-group root the first child is r and each later one an image."""
    for v in node.untried:
        rv = _find(node.orbits, v)
        if any(_find(node.orbits, u) == rv for u in node.done):
            continue
        node.done.append(v)
        return v, _individualized(adj, node.part, v)
    return None


def _canonical_search(g: Graph, target: Optional[tuple] = None):
    """The least leaf certificate of the connected graph g's
    individualization-refinement tree (McKay & Piperno 2014), or with a
    ``target`` certificate whether some leaf's certificate equals it.

    A node is an equitable partition: the root is refined in full, and a
    child individualizes one vertex of the first smallest non-singleton cell
    and is refined from that singleton.  A node's shape is its ``size``
    list, each cell's size at its start and 0 elsewhere; shapes compare as
    the tuples of cell sizes would.  A node is a leaf when its partition is
    discrete, or when its edges depend on cell membership only (then every
    discrete partition below it gives the same edges).  A leaf's certificate
    is the pair (the shapes along its path, its relabeled sorted edge
    tuple), and leaves are ordered by certificate.  The individualized
    vertex of each level keeps its position down to the leaf, and those
    positions follow from the shapes, so two leaves with equal certificates
    differ by an automorphism that maps one path onto the other.

    The search keeps the best leaf and a store of known automorphisms: the
    recorded ones and every one found at a leaf.  It prunes by three rules,
    none of which can lose the least certificate:

    - automorphism backjump: a leaf whose certificate equals the best
      leaf's gives an automorphism mapping its path onto that leaf's path,
      so the search returns straight to the depth where the two paths part;
      the automorphism is stored, and joined into the orbits of every node
      down to that depth, the nodes whose path it fixes;
    - known orbits: at any node, and in the target walk too, a child in the
      orbit of an explored sibling under the stored automorphisms that fix
      the path above it is skipped.  Such an automorphism maps the
      sibling's subtree onto the child's with equal certificates, so the
      child's subtree holds no certificate that the sibling's did not;
    - node invariant: a child whose path shapes are greater than the best
      leaf's shapes to the same depth is skipped, since every leaf below it
      is greater.  No node on the path is ever above the best leaf's shapes,
      because a child is entered only when it is not and a new best lies
      below the path, so this prunes only where the path was equal to them.

    With a target the search walks the same tree in the same order and
    stops at its answer.  A leaf equal to the target answers True: the two
    relabeled edge tuples are equal, so the graphs are isomorphic.  A leaf
    below the target, or a node whose path shapes fall below the target's,
    answers False, because g's least certificate is then the smaller.  A
    walk that ends without an answer reached g's least certificate and found
    it above the target, so it answers False too, after at most one full
    search.

    The search keeps its own stack and builds no closures, so it leaves no
    reference cycles behind."""
    n = g.vertex_count
    adj = adjacency(g)
    known = list(_known_automorphisms(g))  # and every leaf automorphism found
    part = _equitable(adj)
    path: list[int] = []  # the vertex individualized at each depth
    shapes = [part[3]]
    nodes: list[_Node] = []  # the inner nodes above the current node
    best: Optional[tuple] = None  # (certificate, vertex order, path)
    while True:
        order, pos, _, size = part
        if max(size) > 1 and not _homogeneous(adj, part):
            orbits = list(range(n))
            for a in known:
                if all(a[v] == v for v in path):
                    _join(orbits, a)
            nodes.append(_Node(part, orbits))
        else:
            cert = (tuple(shapes), _relabeled_edges(g, pos))
            if target is not None and cert <= target:
                return cert == target
            back = len(path) - 1  # the depth to resume at
            if best is None or cert < best[0]:
                best = (cert, order, path[:])
            elif cert == best[0]:
                gamma = [0] * n
                for v, x in zip(order, best[1]):
                    gamma[v] = x
                known.append(gamma)
                # gamma maps the path onto the best leaf's path, so it fixes
                # the path down to the depth where the two part, and joins
                # the orbits of every node down to there.
                back = 0
                while path[back] == best[2][back]:
                    back += 1
                for node in nodes[:back + 1]:
                    _join(node.orbits, gamma)
            del nodes[back + 1:]
        # Descend into the next child of the deepest node that has one.
        while nodes:
            d = len(nodes) - 1
            del path[d:]
            del shapes[d + 1:]
            found = _next_child(adj, nodes[d])
            if found is None:
                nodes.pop()
                continue
            v, part = found
            path.append(v)
            shapes.append(part[3])
            if target is not None and tuple(shapes) < target[0][:d + 2]:
                return False  # every leaf below lies below the target
            if best is not None and tuple(shapes) > best[0][0][:d + 2]:
                continue  # every leaf below lies above the best
            break
        else:
            return best[0] if target is None else False


@_once_per_graph
def _known_automorphisms(g: Graph) -> tuple[Perm, ...]:
    """The automorphisms that g's builder recorded, kept on g once each has
    been checked to be a permutation of g's vertices that maps every edge
    to an edge.  A recorded map that is not raises ValueError naming it, so
    it never prunes a search."""
    n = g.vertex_count
    known = []
    for name, p in _recorded_automorphisms(g):
        if not (len(p) == n and is_automorphism(g, p)):
            raise ValueError(f"recorded map {name} is not an automorphism of the graph")
        known.append(tuple(p))
    return tuple(known)


@_once_per_graph
def _least_certificate(g: Graph) -> tuple:
    """The least leaf certificate of the connected graph g, kept on g."""
    return _canonical_search(g)


def canonical_form(g: Graph) -> bytes:
    """Relabeling-invariant byte string (graph6 of the canonical labeling).

    The bytes are equal for isomorphic graphs within one version of this
    module; they are not promised to stay the same across versions, since
    they follow the refinement's cell order."""
    check_bound(g.vertex_count)
    # The canonical edges are already distinct, normalised and sorted.
    return encode_graph6(_from_pairs(g.vertex_count, _canonical_edges(g))).encode("ascii")


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether g and h are isomorphic.

    Connected graphs take h's least certificate, kept on h, and search g
    only until a leaf meets it or falls below it; g's own certificate is not
    kept.  A connected graph is not isomorphic to a disconnected one, and
    two disconnected graphs compare canonical edge lists."""
    if g.vertex_count != h.vertex_count or len(g.edges) != len(h.edges):
        return False
    if sorted(degrees(g)) != sorted(degrees(h)):
        return False
    check_bound(g.vertex_count)  # h has as many vertices
    if g == h:
        return True
    connected = is_connected(g)
    if connected != is_connected(h):
        return False
    if not connected:
        return _canonical_edges(g) == _canonical_edges(h)
    return _canonical_search(g, _least_certificate(h))


def quotients_up_to_iso(g: Graph) -> list[Graph]:
    """One quotient per isomorphism class, over all covering involutions,
    ordered by canonical form.

    Each quotient, in covering-involution order, joins the first class whose
    representative it is isomorphic to, by :func:`is_isomorphic`'s walk
    toward that representative's least certificate (kept on it), or else
    starts a class as its representative.  Only two or more classes take
    canonical forms, to be ordered, so a lone quotient is never searched
    here."""
    classes: list[Graph] = []
    for w in kronecker_involutions(g):
        q = quotient(g, w)
        if not any(is_isomorphic(q, rep) for rep in classes):
            classes.append(q)
    if len(classes) > 1:
        classes.sort(key=canonical_form)
    return classes
