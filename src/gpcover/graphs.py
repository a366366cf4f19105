"""Simple undirected graphs as immutable values.

Vertices are dense integers 0..vertex_count-1.  Every Graph is canonical
however it was built (see :class:`Graph`), so two Graph values compare equal
exactly when they are the same labelled graph.  All operations are pure;
share Graphs freely.

Components and the 2-coloring are facts that the package's builders often
know by construction (GP(n,k) is connected, and bipartite iff n is even and
k is odd; a Kronecker cover is bipartite; a quotient by a covering
involution is connected and not bipartite).  A builder records them through
:func:`_from_pairs`, and any fact nobody recorded comes from one
breadth-first search, which also gives the oracle its visit order and
its distance rows.  A builder may also record automorphisms it knows
(GP(n,k) has alpha, beta and sometimes gamma), lazily, as a callable that
only the canonical-form search calls: the oracle checks each map before it
prunes by it.

A Graph's derived data (its adjacency lists and bitsets, its components and
2-coloring, that search, and the oracle's search results) is computed or
recorded on first use and kept on that instance, so it is freed together
with the graph: no module-level cache holds a graph alive.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from functools import wraps
from itertools import repeat
from math import isqrt
from operator import index
from typing import Callable, Iterable, Optional, Sequence, TypeVar

Edge = tuple[int, int]
Vertices = tuple[int, ...]
NamedMap = tuple[str, Sequence[int]]  # a vertex map under a name that errors can use
T = TypeVar("T")


class GraphFormatError(ValueError):
    """Raised for malformed graph6 input."""


def _integer(name: str, value) -> int:
    """value as an int, or ValueError naming it if it is none."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None


@dataclass(frozen=True)
class Graph:
    """A simple graph, canonical by construction: an int vertex count n >= 0
    and int edges (lo, hi), 0 <= lo < hi < n, strictly increasing by
    lo * n + hi, also after copy, pickle or ``dataclasses.replace``.

    Duplicate edges are merged, since two edges may collapse onto one.  A
    loop (a broken construction upstream, e.g. a quotient by a map that is
    not a covering involution) and an out-of-range or non-integer endpoint
    are ValueErrors naming the first bad edge in input order.
    """

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        n = _integer("vertex count", self.vertex_count)
        edges = self.edges if isinstance(self.edges, (list, tuple)) else list(self.edges)
        try:
            keys = {u * n + v if -1 < u < v < n else v * n + u if -1 < v < u < n else -1
                    for u, v in edges}
        except (TypeError, ValueError):  # malformed edges: the walk re-raises
            keys = {-1}
        # A non-int endpoint (1.5, 2.0) makes its key, and so the sum, non-int.
        if -1 in keys or type(sum(keys)) is not int:
            keys = set()
            for u, v in edges:
                if u == v:
                    raise ValueError(f"loop edge at vertex {u}")
                try:
                    lo, hi = sorted(map(index, (u, v)))
                except TypeError:
                    raise ValueError(f"edge ({u!r},{v!r}) has a non-integer endpoint") from None
                if not (0 <= lo and hi < n):
                    raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
                keys.add(lo * n + hi)
        if n < 0:
            raise ValueError("vertex_count must be non-negative")
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "edges", tuple(map(divmod, sorted(keys), repeat(n))))

    def __reduce__(self):
        # Pickle and copy the fields only; derived data is rebuilt on demand.
        return Graph, (self.vertex_count, self.edges)


def _once_per_graph(compute: Callable[[Graph], T]) -> Callable[[Graph], T]:
    """Run compute(g) once per Graph instance and keep its value in that
    instance's ``__dict__`` (which a frozen dataclass leaves writable), so
    the value lives exactly as long as the graph."""
    name = compute.__name__

    @wraps(compute)
    def get(g: Graph) -> T:
        try:
            return g.__dict__[name]
        except KeyError:
            value = g.__dict__[name] = compute(g)
            return value

    return get


def graph(vertex_count: int, edges: Iterable[Sequence[int]]) -> Graph:
    """The canonical Graph with these vertices and edges; see :class:`Graph`."""
    return Graph(vertex_count, edges)


_UNRECORDED = object()  # the default of _from_pairs's ``colouring``: not known


def _from_pairs(n: int, pairs: Iterable[Edge], *,
                components: Optional[tuple[Vertices, ...]] = None,
                colouring: Optional[Vertices] = _UNRECORDED,
                automorphisms: Optional[Callable[[], Iterable[NamedMap]]] = None) -> Graph:
    """The Graph on n vertices with these edges, built without the checks of
    :class:`Graph`: for the package's builders, whose pairs are valid by
    construction.  The caller guarantees an int n >= 0 and distinct int
    pairs (lo, hi) with 0 <= lo < hi < n, in any order; sorting them then
    gives the canonical order lo * n + hi.  Outside input goes through
    :func:`graph`.

    A builder that knows the graph's components or 2-coloring by
    construction passes them, and the caller guarantees them too: exactly
    what the search would find, that is, the components each sorted and
    ordered by least vertex, and the colouring None iff there is an odd
    cycle, else a 0/1 tuple that gives each component's least vertex
    colour 0 (the :func:`bipartition` convention).  Whatever is not passed
    comes from :func:`_search` when first asked for.

    A builder that knows automorphisms of the graph passes ``automorphisms``,
    a callable with no arguments that returns them as (name, map) pairs.
    It is kept uncalled, so a graph that is never searched pays nothing,
    and must not refer to the graph, so that no reference cycle keeps the
    graph alive.  These maps are the one record that the caller need not
    guarantee: the oracle checks each before it prunes by it (see
    :func:`_recorded_automorphisms`)."""
    g = object.__new__(Graph)
    object.__setattr__(g, "vertex_count", n)
    object.__setattr__(g, "edges", tuple(sorted(pairs)))
    if components is not None:
        g.__dict__[_components.__name__] = components
    if colouring is not _UNRECORDED:
        g.__dict__[_colouring.__name__] = colouring
    if automorphisms is not None:
        g.__dict__[_recorded_automorphisms.__name__] = automorphisms
    return g


def _recorded_automorphisms(g: Graph) -> tuple[NamedMap, ...]:
    """The (name, map) pairs that g's builder recorded as automorphisms of
    g, materialized by each call, or () if it recorded none.  They are not
    checked here; the oracle checks them and keeps the result on g."""
    make = g.__dict__.get(_recorded_automorphisms.__name__)
    return () if make is None else tuple(make())


@_once_per_graph
def adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor lists, indexed by vertex, built once per Graph and
    kept on it.

    The edges are sorted pairs (u, v) with u < v, so each list fills in
    ascending order: first the smaller neighbours, then the larger ones.
    """
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(tuple, adj))


@_once_per_graph
def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Neighborhoods as integer bitsets (bit v set iff v is a neighbor),
    built once per Graph and kept on it."""
    masks = [0] * g.vertex_count
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def degrees(g: Graph) -> tuple[int, ...]:
    return tuple(len(a) for a in adjacency(g))


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected vertex sets, each sorted, ordered by least vertex."""
    return list(map(list, _components(g)))


def is_connected(g: Graph) -> bool:
    return len(_components(g)) <= 1


def bipartition(g: Graph) -> Optional[list[int]]:
    """2-coloring with colors 0/1, or None if an odd cycle exists.

    Within each connected component the least-index vertex gets color 0.
    """
    colors = _colouring(g)
    return None if colors is None else list(colors)


@_once_per_graph
def _components(g: Graph) -> tuple[Vertices, ...]:
    """The components of :func:`connected_components` as tuples, as the
    graph's builder recorded them or else from :func:`_search`."""
    return _search(g)[0]


@_once_per_graph
def _colouring(g: Graph) -> Optional[Vertices]:
    """The 2-coloring of :func:`bipartition` as a tuple, or None, as the
    graph's builder recorded it or else from :func:`_search`."""
    return _search(g)[1]


def _breadth_first(adj: Sequence[Sequence[int]], source: int, dist: list[int]) -> list[int]:
    """Breadth-first search from source over adj in list order: writes each
    reached vertex's distance into dist (-1: unvisited) and returns the
    visit order; :func:`girth` alone keeps its own, early-stopping search."""
    dist[source] = 0
    order = [source]
    for u in order:  # order grows as the queue of the search
        d = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = d
                order.append(w)
    return order


@_once_per_graph
def _search(g: Graph) -> tuple[tuple[Vertices, ...], Optional[Vertices], Vertices]:
    """Components, 2-coloring (None if an edge joins two vertices of one
    color) and visit order of one :func:`_breadth_first` from each least
    unvisited vertex: the fallback of the two memos above, and the oracle's
    backtracking order, so that the covering-involution checks search each
    graph at most once.  A colour is a depth's parity."""
    adj = adjacency(g)
    dist = [-1] * g.vertex_count
    comps = []
    visits: list[int] = []
    for start in range(g.vertex_count):
        if dist[start] < 0:
            comp = _breadth_first(adj, start, dist)
            visits += comp
            comps.append(tuple(sorted(comp)))
    color = tuple(d & 1 for d in dist)
    odd = any(color[u] == color[v] for u, v in g.edges)
    return tuple(comps), None if odd else color, tuple(visits)


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for forests.

    BFS from every vertex; a non-tree edge (u,w) seen from root r closes a
    walk of length d(u)+d(w)+1 that contains a cycle, and for r on a
    shortest cycle the bound is attained.
    """
    adj = adjacency(g)
    best: Optional[int] = None
    for root in range(g.vertex_count):
        dist = [-1] * g.vertex_count
        parent = [-1] * g.vertex_count
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
    return best


# ---------------------------------------------------------------------------
# graph6 interchange format (McKay's ASCII packing of the upper triangle)

_G6_MAX = 258047
_G6_CHARS = bytes(range(63, 127))
_PLUS_63 = bytes(range(63, 256)) + bytes(range(63))
_MINUS_63 = bytes(range(193, 256)) + bytes(range(193))
# _SET_BITS[c]: offsets j in 0..5 of the set bits of a 6-bit value c, where
# offset j is the bit 32 >> j (graph6 packs the first position highest).
_SET_BITS = tuple(tuple(j for j in range(6) if c & (32 >> j)) for c in range(64))
# _NONZERO: 0 for a zero byte, else 1, so ``find(1)`` skips zero bytes in C.
_NONZERO = bytes(1) + bytes([1]) * 255


def encode_graph6(g: Graph) -> str:
    """Standard graph6 string: size header, then the upper-triangle bits
    x(0,1) x(0,2) x(1,2) x(0,3) ... packed 6 per character, offset by 63.

    Python sets one bit per edge; the offset is a single ``bytes.translate``.
    """
    n = g.vertex_count
    if n > _G6_MAX:
        raise ValueError(f"graph6 supports at most {_G6_MAX} vertices")
    if n <= 62:
        header = chr(63 + n)
    else:
        header = "~" + "".join(chr(63 + ((n >> s) & 0x3F)) for s in (12, 6, 0))
    nbits = n * (n - 1) // 2
    bits = bytearray((nbits + 5) // 6)
    for u, v in g.edges:
        pos = v * (v - 1) // 2 + u
        bits[pos // 6] |= 32 >> (pos % 6)
    return header + bits.translate(_PLUS_63).decode("ascii")


def decode_graph6(s: str | bytes) -> Graph:
    """Inverse of encode_graph6, strict enough that encode_graph6 gives the
    input back (less an optional ``>>graph6<<`` header and trailing newlines).

    Raises GraphFormatError, in this order, for an empty string; a character
    or byte outside '?'..'~' (the first one is named); a malformed long size
    header (too short, the 8-byte form, or an n below 63, which has the
    one-character header); a bit field that is truncated or followed by
    trailing garbage; and non-zero padding bits after the last upper-triangle position.  The
    range check, the offset and the search for non-zero bytes run in C, and
    Python visits only the non-zero bytes of the bit field, so the cost
    follows the edges, not n².
    """
    from_bytes = isinstance(s, bytes)
    if from_bytes:
        s = s.decode("latin-1")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    s = s.rstrip("\n")
    if not s:
        raise GraphFormatError("empty graph6 string")
    raw = s.encode("utf-8", "surrogatepass")  # non-ASCII: bytes >= 0x80
    if raw.translate(None, _G6_CHARS):
        ch = next(c for c in s if not "?" <= c <= "~")
        if from_bytes and not ch.isascii():
            raise GraphFormatError(f"non-ASCII byte {ord(ch):#04x} outside graph6 range")
        raise GraphFormatError(f"character {ch!r} outside graph6 range")
    vals = raw.translate(_MINUS_63)
    if vals[0] == 63:  # '~': extended size header
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3] if len(vals) >= 4 else 0
        # The 4-byte header holds exactly 63 <= n <= _G6_MAX: a smaller n has
        # the one-byte header, and "~~" starts the 8-byte header of a larger.
        if not 63 <= n <= _G6_MAX:
            raise GraphFormatError("malformed graph6 size header")
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise GraphFormatError("truncated graph6 bit field")
    if len(body) > need:
        raise GraphFormatError("trailing garbage after graph6 bit field")
    if body and body[-1] & ((1 << (6 * need - nbits)) - 1):
        raise GraphFormatError("non-zero padding bits after graph6 bit field")
    edges = []
    nonzero = body.translate(_NONZERO)
    i = nonzero.find(1)
    while i >= 0:
        for j in _SET_BITS[body[i]]:
            pos = 6 * i + j
            v = (1 + isqrt(8 * pos + 1)) // 2
            edges.append((pos - v * (v - 1) // 2, v))
        i = nonzero.find(1, i + 1)
    # Each set bit is one position u < v < n (the padding check refused any
    # bit past the last position), so the pairs are distinct and valid.
    return _from_pairs(n, edges)


def to_dot(g: Graph) -> str:
    """DOT `graph` block with one line per edge."""
    lines = ["graph G {", *(f"  {u} -- {v};" for u, v in g.edges), "}"]
    return "\n".join(lines) + "\n"
