"""Closed-form classification of which GP(n,k) are Kronecker covers.

Decision structure:

* not bipartite (n odd, or k even) -> never a cover;
* n = 2 (mod 4), k odd -> cover via the half-turn rotation, quotient a
  smaller GP graph;
* n = 0 (mod 4), k odd -> cover iff k^2 = 1 (mod n) with even quotient
  Q = (k^2-1)/n, via a rim-switching involution, quotient a ring-plus-
  matching LCF graph;
* GP(10,3) -> the unique double case (two non-isomorphic quotients);
* GP(8,3) -> not a cover: the closed form nominally includes it, but its
  candidate involution fixes spokes and the candidate quotient sequence
  contains zero jumps (Q = 1 is odd, so the B rule excludes it as well).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Optional

from .graphs import Graph, _integer
from .families import GpParams, LcfSpec, _ring_size, gp, h_graph, lcf, rim_jumps
from .perms import WordTriple, format_word


def two_adic(i: int) -> int:
    """Largest e with 2^e dividing i (i >= 1)."""
    if i <= 0:
        raise ValueError(f"need a positive integer, got {i}")
    return (i & -i).bit_length() - 1


def q_value(n: int, k: int) -> Optional[int]:
    """(k^2 - 1) / n when n divides k^2 - 1, else None."""
    n, k = _ring_size(n), _integer("k", k)
    return (k * k - 1) // n if (k * k - 1) % n == 0 else None


@dataclass(frozen=True)
class Arith:
    """Shift arithmetic for the rim-switching involutions of GP(n,k)."""

    n: int
    k: int
    q: Optional[int]
    a_min: int        # minimal shift of type alpha^a gamma: n / gcd(n, k+1)
    a_min_prime: int  # minimal shift of type alpha^a beta gamma: n / gcd(n, n-k+1)


def _min_shift(n: int, t: int) -> int:
    """n / gcd(n, 1 + t), the least a > 0 with (1 + t) a = 0 (mod n)."""
    n = _ring_size(n)
    return n // gcd(n, 1 + t)


def arith(n: int, k: int) -> Arith:
    return Arith(n, k, q_value(n, k), _min_shift(n, k), _min_shift(n, -k))


# ---------------------------------------------------------------------------
# Classification result.

class Case(str, Enum):
    NOT_BIPARTITE = "NotBipartite"
    NO_COVER = "NoCover"
    A1 = "A1"
    A2 = "A2"
    B1 = "B1"
    B2 = "B2"
    EXCEPTIONAL_10_3 = "Exceptional_10_3"
    EXCEPTIONAL_8_3 = "Exceptional_8_3"


# ---------------------------------------------------------------------------
# The B-family rule, written once.  A family is its words alpha^a beta^b gamma:
# k = 1 (mod 4) selects case B1 and b = 0, k = 3 (mod 4) case B2 and b = 1.
# Each word sends u_i to v_{ti+a}, t = (-1)^b k, so the quotient along shift a
# has jumps a + i(t - 1), i.e. a + i(k - 1) (C+) or a - i(k + 1) (C-), and the
# shifts are the odd multiples of n / gcd(n, 1 + t) below n.

@dataclass(frozen=True)
class _BFamily:
    case: Case
    kind: str   # quotient kind
    label: str  # quotient label prefix
    b: int      # beta exponent of the words alpha^a beta^b gamma

    def jumps(self, n: int, k: int, a: int) -> LcfSpec:
        return rim_jumps(n, a, WordTriple(a, self.b, 1).step(k) - 1)


_FAMILY_OF_K_MOD_4 = {
    1: _BFamily(Case.B1, "cplus", "C+", 0),
    3: _BFamily(Case.B2, "cminus", "C-", 1),
}
_FAMILY_OF_KIND = {f.kind: f for f in _FAMILY_OF_K_MOD_4.values()}


def family_shifts(n: int, k: int) -> list[int]:
    """All shifts a = s * a_min with s odd and a < n, for the shift type
    selected by k mod 4 (plain for k = 1, reflected for k = 3 mod 4)."""
    k = _integer("k", k)
    if k % 2 == 0:
        raise ValueError("shift families require odd k")
    m = _min_shift(n, WordTriple(0, _FAMILY_OF_K_MOD_4[k % 4].b, 1).step(k))
    return list(range(m, n, 2 * m))


@dataclass(frozen=True)
class QuotientDesc:
    """Symbolic quotient: a GP graph, a ring-plus-matching LCF graph, or
    the apex graph H.

    A description refuses a range it could never build: GP and C+/C- take
    an (n, k) that :class:`GpParams` accepts, C+/C- also an even n, and H
    neither.  Degenerate C+/C- jumps still make a spec, which :func:`lcf`
    refuses."""

    kind: str  # "gp" | "cplus" | "cminus" | "h"
    n: int = 0
    k: int = 0
    via: Optional[WordTriple | str] = None  # involution producing it

    def __post_init__(self) -> None:
        if self.kind not in ("gp", "h", *_FAMILY_OF_KIND):
            raise ValueError(f"unknown quotient kind {self.kind!r}")
        for name in ("n", "k"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.kind == "h":
            if self.n or self.k:
                raise ValueError(f"quotient kind 'h' takes no n or k, got n={self.n}, k={self.k}")
            return
        GpParams(self.n, self.k)  # the range every other kind is built on
        if self.kind != "gp" and self.n % 2:
            raise ValueError(f"n must be even, got {self.n}")

    def label(self) -> str:
        if self.kind == "gp":
            return f"GP({self.n},{self.k})"
        if self.kind == "h":
            return "H"
        return f"{_FAMILY_OF_KIND[self.kind].label}({self.n},{self.k})"

    def spec(self) -> Optional[LcfSpec]:
        """C+/C-(n,k): the family's jumps at a = n/2, returned unvalidated
        so degenerate instances surface in :func:`lcf`."""
        family = _FAMILY_OF_KIND.get(self.kind)
        return None if family is None else family.jumps(self.n, self.k, self.n // 2)

    def materialize(self) -> Graph:
        if self.kind == "gp":
            return gp(GpParams(self.n, self.k))
        if self.kind == "h":
            return h_graph()
        return lcf(self.spec())


@dataclass(frozen=True)
class Classification:
    n: int
    k: int
    case: Case
    quotients: tuple[QuotientDesc, ...]
    canonical_involution: Optional[WordTriple]

    @property
    def covered(self) -> bool:
        return bool(self.quotients)

    def involution_words(self, ascii_only: bool = False) -> list[str]:
        """The word of each quotient's involution, in quotient order."""
        return [format_word(q.via, ascii_only) for q in self.quotients if q.via is not None]


def classify(p: GpParams) -> Classification:
    """Apply the closed-form decision; see the module docstring."""
    n, k = p.n, p.k
    if (n, k) == (10, 3):
        half = WordTriple(5, 0, 0)
        return Classification(
            n, k, Case.EXCEPTIONAL_10_3,
            (
                QuotientDesc("gp", 5, 2, via=half),
                QuotientDesc("h", via="delta"),
            ),
            half,
        )
    if (n, k) == (8, 3):
        return Classification(n, k, Case.EXCEPTIONAL_8_3, (), None)
    if n % 2 == 1 or k % 2 == 0:
        return Classification(n, k, Case.NOT_BIPARTITE, (), None)
    if n % 4 == 2:
        half = WordTriple(n // 2, 0, 0)
        if 4 * k < n:
            desc = QuotientDesc("gp", n // 2, k, via=half)
            return Classification(n, k, Case.A1, (desc,), half)
        desc = QuotientDesc("gp", n // 2, n // 2 - k, via=half)
        return Classification(n, k, Case.A2, (desc,), half)
    # n = 0 (mod 4): cover iff n | (k^2-1)/2, i.e. k^2 = 1 (mod n) and Q even.
    q = q_value(n, k)
    if q is None or q % 2:
        return Classification(n, k, Case.NO_COVER, (), None)
    family = _FAMILY_OF_K_MOD_4[k % 4]
    tri = WordTriple(n // 2, family.b, 1)
    return Classification(
        n, k, family.case, (QuotientDesc(family.kind, n, k, via=tri),), tri
    )


def _family_of_b_case(p: GpParams) -> _BFamily:
    """The family of a B1/B2 instance; any other case is an error."""
    case = classify(p).case
    if case not in (Case.B1, Case.B2):
        raise ValueError(f"GP({p.n},{p.k}) is case {case.value}, not B1/B2")
    return _FAMILY_OF_K_MOD_4[p.k % 4]


def involution_family(p: GpParams) -> list[WordTriple]:
    """All covering involutions of a B1/B2 instance, as word triples,
    ascending in the shift."""
    b = _family_of_b_case(p).b
    return [WordTriple(a, b, 1) for a in family_shifts(p.n, p.k)]


def quotient_lcf(p: GpParams, a: int) -> LcfSpec:
    """Jump sequence of the quotient along the family member with shift a:
    f_a(i) = a + i(k-1) for B1, f_a(i) = a - i(k+1) for B2.  For a = n/2
    these are exactly the C+/C- sequences."""
    n, k = p.n, p.k
    if a not in family_shifts(n, k):
        raise ValueError(f"shift {a} is not in the involution family of GP({n},{k})")
    return _family_of_b_case(p).jumps(n, k, a)


_SYMMETRIC_PAIRS = frozenset(
    {(4, 1), (5, 2), (8, 3), (10, 2), (10, 3), (12, 5), (24, 5)}
)


def is_exceptional_pair(n: int, k: int) -> bool:
    """Pairs whose automorphism group exceeds the generic presentation."""
    return (n, k) in _SYMMETRIC_PAIRS
