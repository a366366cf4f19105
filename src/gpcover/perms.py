"""Permutations on GP vertex sets and the standard symmetry generators.

Permutations are tuples `image` with image[i] the image of vertex i.
Composition is right-to-left: compose(p, q) applies q first.  On the
labeling u_i -> i, v_i -> n+i, every word alpha^a beta^b gamma^c is one
affine map: it sends index i to t*i + a on both rims, with step
t = (-1)^b k^c, and swaps the rims iff c = 1.  So alpha^a gamma sends u_i
to v_{ki+a}, the form all the shift formulas in :mod:`gpcover.classify`
are written in.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import AbstractSet, Sequence

from .graphs import Edge, Graph, _at_least, _integer

Perm = tuple[int, ...]

_SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def _ring_size(n: int) -> int:
    """n as the int length of a ring Z_n, which every GP word and every
    family needs >= 3."""
    return _at_least("n", n, 3)


def identity(n: int) -> Perm:
    return tuple(range(_at_least("n", n, 0)))


def is_permutation(p: Sequence[int]) -> bool:
    """Whether p lists each of 0..len(p)-1 once, as integers: a float entry
    such as 1.0 is refused, since it cannot index a vertex."""
    try:
        return sorted(map(index, p)) == list(range(len(p)))
    except TypeError:
        return False


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p.q)(i) = p(q(i))."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    for m in (p, q):
        if not is_permutation(m):
            raise ValueError(f"cannot compose: {tuple(m)!r} is not a permutation")
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p: Perm) -> Perm:
    if not is_permutation(p):
        raise ValueError(f"no inverse: {tuple(p)!r} is not a permutation")
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img] = i
    return tuple(inv)


def power(p: Perm, m: int) -> Perm:
    """p^m for every integer m: each point moves m steps along its cycle of p."""
    m = _integer("exponent", m)
    if not is_permutation(p):
        raise ValueError(f"no power: {tuple(p)!r} is not a permutation")
    image: list = [None] * len(p)
    for start in range(len(p)):
        if image[start] is None:
            cycle = [start]
            while p[cycle[-1]] != start:
                cycle.append(p[cycle[-1]])
            for j, x in enumerate(cycle):
                image[x] = cycle[(j + m) % len(cycle)]
    return tuple(image)


# The Desargues graph GP(10,3) redrawn as C6 x P3 (Cartesian) with the middle
# hexagon's edges removed and two apex vertices joined alternately to it has
# an evident symmetry: rotate the prism part half a turn and swap the apexes.
# Translating that drawing back into GP labels gives the table below; it is
# an automorphism that mixes the rims, so it lies outside <alpha, beta, gamma>.
_DESARGUES_HALF_TURN: Perm = (
    5, 6, 16, 19, 9, 0, 1, 11, 14, 4,
    15, 7, 13, 12, 8, 10, 2, 18, 17, 3,
)


def desargues_half_turn() -> Perm:
    """The rim-mixing involution of GP(10,3) from its hexagonal drawing."""
    return _DESARGUES_HALF_TURN


# ---------------------------------------------------------------------------
# Canonical words alpha^a beta^b gamma^c, the generators among them.

@dataclass(frozen=True)
class WordTriple:
    """Exponents (a, b, c) of the word alpha^a beta^b gamma^c."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.b not in (0, 1) or self.c not in (0, 1):
            raise ValueError("b and c must be 0 or 1")

    def step(self, k: int) -> int:
        """t = (-1)^b k^c, the factor in the word's action i -> t*i + a."""
        return (-1 if self.b else 1) * (k if self.c else 1)


def _affine(n: int, t: int, a: int, swap: bool) -> Perm:
    """The one materialization of a word: i -> t*i + a on both rims, swapped iff swap."""
    n = _ring_size(n)
    ring = [(t * i + a) % n for i in range(n)]
    other = [n + i for i in ring]
    return tuple(other + ring if swap else ring + other)


def from_triple(n: int, k: int, t: WordTriple) -> Perm:
    """Evaluate alpha^a beta^b gamma^c as a permutation of the 2n GP vertices."""
    k = _integer("k", k)
    if not isinstance(t, WordTriple):
        raise ValueError(f"word {t!r} is not a WordTriple")
    perm = _affine(n, t.step(k), t.a, bool(t.c))  # refuses a bad n before the test
    if t.c and k * k % n not in (1, n - 1):
        raise ValueError(f"gamma is not an automorphism of GP({n},{k}): "
                         f"k^2 = {k * k % n} is not +-1 (mod {n})")
    return perm


def rotation(n: int) -> Perm:
    """alpha: u_i -> u_{i+1}, v_i -> v_{i+1}."""
    return _affine(n, 1, 1, False)


def reflection(n: int) -> Perm:
    """beta: u_i -> u_{-i}, v_i -> v_{-i}."""
    return _affine(n, -1, 0, False)


def rim_swap(n: int, k: int) -> Perm:
    """gamma: u_i -> v_{ki}, v_i -> u_{ki}; an automorphism iff k^2 = +-1 (mod n)."""
    return from_triple(n, k, WordTriple(0, 0, 1))


def format_word(t: WordTriple | str, ascii_only: bool = False) -> str:
    """Render a word triple in the usual notation ("α⁶γ", ascii "a^6*g").

    The string "delta" renders the special Desargues symmetry.
    """
    if isinstance(t, str):
        if t != "delta":
            raise ValueError(f"unknown special word {t!r}")
        return "D" if ascii_only else "Δ"
    if not isinstance(t, WordTriple):
        raise ValueError(f"word {t!r} is not a WordTriple")
    parts_ascii: list[str] = []
    parts_uni: list[str] = []
    if t.a:
        parts_ascii.append("a" if t.a == 1 else f"a^{t.a}")
        parts_uni.append("α" if t.a == 1 else "α" + str(t.a).translate(_SUPERSCRIPTS))
    if t.b:
        parts_ascii.append("b")
        parts_uni.append("β")
    if t.c:
        parts_ascii.append("g")
        parts_uni.append("γ")
    if not parts_ascii:
        return "1"
    return "*".join(parts_ascii) if ascii_only else "".join(parts_uni)


# ---------------------------------------------------------------------------
# Predicates.

def is_automorphism(g: Graph, p: Sequence[int]) -> bool:
    """True iff p is a vertex bijection mapping edges onto edges."""
    if len(p) != g.vertex_count:
        raise ValueError(
            f"permutation length {len(p)} != vertex count {g.vertex_count}"
        )
    return is_permutation(p) and _maps_edges_into(g, p, set(g.edges))


def _maps_edges_into(g: Graph, p: Sequence[int], edge_set: AbstractSet[Edge]) -> bool:
    """Whether the vertex map p sends every edge of g into edge_set, the
    edges of a graph h as a set, which a caller that checks several maps
    against h builds once.  The caller has checked what p must be: with h
    = g and p a permutation, this makes p an automorphism."""
    for u, v in g.edges:
        pu, pv = p[u], p[v]
        if ((pu, pv) if pu < pv else (pv, pu)) not in edge_set:
            return False
    return True
