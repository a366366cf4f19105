"""Constructors for the concrete graph families.

Labeling convention for GP(n,k), fixed across the whole package: outer
vertex u_i is index i and inner vertex v_i is index n+i, so permutations
built in :mod:`gpcover.perms` apply without translation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import index

from .graphs import Graph, _at_least, _from_pairs, _integer, graph
from .perms import Perm, _gamma_is_automorphism, _ring_size, reflection, rim_swap, rotation


@dataclass(frozen=True)
class GpParams:
    """A validated (n, k) pair: n >= 3 and 1 <= k < n/2."""

    n: int
    k: int

    def __post_init__(self) -> None:
        for name in ("n", "k"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        _ring_size(self.n)
        _at_least("k", self.k, 1)
        if 2 * self.k >= self.n:
            raise ValueError(f"k={self.k} violates k < n/2 for n={self.n}")

    @property
    def bipartite(self) -> bool:
        """Whether GP(n,k) is bipartite: n even and k odd (see :func:`gp`)."""
        return self.n % 2 == 0 and self.k % 2 == 1


@dataclass(frozen=True)
class LcfSpec:
    """Cyclic jump sequence over Z_n: an n-cycle plus the chords {i, i+f(i)}.

    Construction checks only that n >= 3 and that the jumps are n integers,
    kept as a tuple of ints, so degenerate sequences can be inspected and
    reported; :func:`lcf_violations` lists the problems and :func:`lcf`
    refuses to materialize an invalid spec.
    """

    n: int
    jumps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _ring_size(self.n))
        jumps = tuple(self.jumps)
        try:
            jumps = tuple(map(index, jumps))
        except TypeError:
            for i, j in enumerate(jumps):  # name the first bad jump
                _integer(f"jumps[{i}]", j)
            raise
        object.__setattr__(self, "jumps", jumps)
        if len(self.jumps) != self.n:
            raise ValueError(f"expected {self.n} jumps, got {len(self.jumps)}")


def lcf_violations(spec: LcfSpec) -> list[str]:
    """Reasons the spec fails to describe a simple cubic Hamiltonian graph.

    Checks, in order: zero jumps (loops), jumps of +-1 (would duplicate a
    ring edge), and matching closure f(i + f(i)) = -f(i) (mod n), which
    makes the chords a fixed-point-free pairing.
    """
    n = spec.n
    f = [j % n for j in spec.jumps]
    problems = []
    zeros = [i for i in range(n) if f[i] == 0]
    if zeros:
        problems.append(f"zero jump at positions {zeros}")
    ones = [i for i in range(n) if f[i] in (1, n - 1)]
    if ones:
        problems.append(f"jump of +-1 at positions {ones} duplicates a ring edge")
    bad = [i for i in range(n) if f[i] and (f[(i + f[i]) % n] + f[i]) % n != 0]
    if bad:
        problems.append(f"matching closure fails at positions {bad}")
    return problems


def lcf(spec: LcfSpec) -> Graph:
    """Materialize an LCF spec: ring 0-1-...-(n-1)-0 plus chords.

    Each chord {i, i + f(i)} is listed once, from its lower end.
    """
    problems = lcf_violations(spec)
    if problems:
        raise ValueError("invalid LCF spec: " + "; ".join(problems))
    n = spec.n
    # The spec passed lcf_violations, so the chords are a perfect matching
    # that meets no ring edge: each chord's ends differ by 2 to n - 2.  So
    # vertex by vertex, in the canonical order, vertex 0 has the ring edge
    # to 1, its chord and the ring edge to n - 1; each later i < n - 1 has
    # the ring edge to i + 1 and then its chord, if the chord goes up.
    ends = [(i + f) % n for i, f in enumerate(spec.jumps)]
    edges = [(0, 1), (0, ends[0]), (0, n - 1)]
    for i in range(1, n - 1):
        edges.append((i, i + 1))
        if ends[i] > i:
            edges.append((i, ends[i]))
    return _from_pairs(n, edges)


def gp(p: GpParams) -> Graph:
    """The generalized Petersen graph GP(n,k) on 2n vertices.

    Outer ring u_i u_{i+1}, inner jumps v_i v_{i+k} (gcd(n,k) cycles), and
    the perfect matching of spokes u_i v_i.  The graph carries its
    generators alpha, beta and, when k^2 = +-1 (mod n), gamma, as a record
    that the canonical-form search materializes when it first needs them.
    """
    n, k = p.n, p.k
    # Normalised pairs, each edge once since 1 <= k < n/2, in the canonical
    # order, vertex by vertex: u_0's ring edges to u_1 and u_{n-1} and its
    # spoke; each later u_i's ring edge to u_{i+1} and its spoke (u_{n-1}
    # has only the spoke); then v_i's inner edges to v_{i+k} and, for i < k,
    # to v_{i-k} = v_{i+n-k}, which lies above v_{i+k} since k < n - k.
    edges = [(0, 1), (0, n - 1), (0, n)]
    for i in range(1, n - 1):
        edges += (i, i + 1), (i, n + i)
    edges.append((n - 1, 2 * n - 1))
    for v in range(n, n + k):
        edges += (v, v + k), (v, v + n - k)
    edges += [(v, v + k) for v in range(n + k, 2 * n - k)]
    # Connected: every v_i has a spoke to the ring.  For n even and k odd,
    # ring and inner edges join indices of opposite parity and spokes join
    # u_i to v_i, so u_i -> i mod 2, v_i -> (i + 1) mod 2 is proper, with u_0
    # coloured 0; otherwise an odd n makes the ring an odd cycle, and an even
    # k the cycle u_0 ... u_k v_k v_0 of length k + 3.
    colouring = (0, 1) * (n // 2) + (1, 0) * (n // 2) if p.bipartite else None
    return _from_pairs(2 * n, edges, components=(tuple(range(2 * n)),), colouring=colouring,
                       automorphisms=partial(_gp_generators, n, k))


def _gp_generators(n: int, k: int) -> tuple[tuple[str, Perm], ...]:
    """alpha, beta and, when k^2 = +-1 (mod n), gamma as named maps of
    GP(n,k)'s vertices.  They generate Aut GP(n,k) except for the seven
    exceptional (n,k), whose group is larger (Frucht, Graver & Watkins
    1971)."""
    named = [("α", rotation(n)), ("β", reflection(n))]
    if _gamma_is_automorphism(n, k):
        named.append(("γ", rim_swap(n, k)))
    return tuple(named)


def rim_jumps(n: int, a: int, step: int) -> LcfSpec:
    """Jump sequence f(i) = a + i*step mod n (unvalidated, see :func:`lcf`)."""
    return LcfSpec(n, tuple((a + i * step) % n for i in range(n)))


def h_graph() -> Graph:
    """The 10-vertex cubic apex graph: K3 x P3 (Cartesian) with the middle
    triangle deleted and a new vertex joined to the three degree-2 vertices.

    Labeling: (t, p) -> 3p + t for triangle position t and path layer p,
    apex is vertex 9.
    """
    edges = []
    for p in (0, 2):  # end-layer triangles; middle layer stays edgeless
        base = 3 * p
        edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
    for t in range(3):  # path edges between consecutive layers
        edges += [(t, t + 3), (t + 3, t + 6)]
    edges += [(9, 3), (9, 4), (9, 5)]  # apex to the middle layer
    return graph(10, edges)

