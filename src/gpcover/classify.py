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

from .graphs import Graph
from .families import GpParams, LcfSpec, c_minus, c_plus, gp, h_graph, lcf, rim_jumps
from .perms import WordTriple, format_word


def two_adic(i: int) -> int:
    """Largest e with 2^e dividing i (i >= 1)."""
    if i <= 0:
        raise ValueError(f"need a positive integer, got {i}")
    return (i & -i).bit_length() - 1


def q_value(n: int, k: int) -> Optional[int]:
    """(k^2 - 1) / n when n divides k^2 - 1, else None."""
    return (k * k - 1) // n if (k * k - 1) % n == 0 else None


@dataclass(frozen=True)
class Arith:
    """Shift arithmetic for the rim-switching involutions of GP(n,k)."""

    n: int
    k: int
    q: Optional[int]
    a_min: int        # minimal shift of type alpha^a gamma: n / gcd(n, k+1)
    a_min_prime: int  # minimal shift of type alpha^a beta gamma: n / gcd(n, n-k+1)


def arith(n: int, k: int) -> Arith:
    return Arith(n, k, q_value(n, k), n // gcd(n, k + 1), n // gcd(n, n - k + 1))


@dataclass(frozen=True)
class Conditions:
    """The five necessary conditions for a rim-switching shift a to give a
    covering involution (plain: alpha^a gamma; reflected: alpha^a beta gamma)."""

    c1: bool  # doubling the shift never gives a covering involution
    c2: bool  # a is an odd multiple of the minimal shift
    c3: bool  # the minimal shift is even
    c4: bool  # Q is even
    c5: bool  # k = 1 (mod 4) (plain) / k = 3 (mod 4) (reflected)

    def all_hold(self) -> bool:
        return self.c1 and self.c2 and self.c3 and self.c4 and self.c5


def _is_shift_involution(n: int, k: int, a: int, reflected: bool) -> bool:
    """Arithmetic test: alpha^a gamma (or alpha^a beta gamma) is a covering
    involution iff a(k+1) = 0 (resp. a(k-1) = 0) mod n, a is even, and the
    spoke-fixing congruence (k-1)i = -a (resp. (k+1)i = a) is unsolvable."""
    a %= n
    step = k - 1 if reflected else k + 1
    if (a * step) % n:
        return False  # not an involution
    if a % 2:
        return False  # color-preserving
    fix = gcd(n, k + 1 if reflected else k - 1)
    return a % fix != 0  # a = 0 (mod fix) iff some spoke is fixed


def _odd_multiple(a: int, m: int, n: int) -> bool:
    """Does a = s*m (mod n) hold for some odd s?"""
    if a % m:
        return False
    s, g = a // m, n // m
    return s % 2 == 1 or (g % 2 == 1 and (s + g) % 2 == 1)


def necessary_conditions(n: int, k: int, a: int, kind: str) -> Conditions:
    """Evaluate the five conditions for shift a; kind is "plain" or "reflected"."""
    if (k * k - 1) % n:
        raise ValueError(f"requires k^2 = 1 (mod n); got k={k}, n={n}")
    if kind not in ("plain", "reflected"):
        raise ValueError(f"kind must be 'plain' or 'reflected', got {kind!r}")
    reflected = kind == "reflected"
    ar = arith(n, k)
    m = ar.a_min_prime if reflected else ar.a_min
    q = ar.q
    return Conditions(
        c1=not _is_shift_involution(n, k, 2 * a, reflected),
        c2=_odd_multiple(a % n, m, n),
        c3=m % 2 == 0,
        c4=q is not None and q % 2 == 0,
        c5=k % 4 == (3 if reflected else 1),
    )


def family_shifts(n: int, k: int) -> list[int]:
    """All shifts a = s * a_min with s odd and a < n, for the shift type
    selected by k mod 4 (plain for k = 1, reflected for k = 3 mod 4)."""
    if k % 2 == 0:
        raise ValueError("shift families require odd k")
    ar = arith(n, k)
    m = ar.a_min_prime if k % 4 == 3 else ar.a_min
    return [s * m for s in range(1, n // m + 1, 2) if s * m < n]


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


@dataclass(frozen=True)
class QuotientDesc:
    """Symbolic quotient: a GP graph, a ring-plus-matching LCF graph, or
    the apex graph H."""

    kind: str  # "gp" | "cplus" | "cminus" | "h"
    n: int = 0
    k: int = 0
    via: Optional[WordTriple | str] = None  # involution producing it

    def label(self) -> str:
        if self.kind == "gp":
            return f"GP({self.n},{self.k})"
        if self.kind == "cplus":
            return f"C+({self.n},{self.k})"
        if self.kind == "cminus":
            return f"C-({self.n},{self.k})"
        return "H"

    def spec(self) -> Optional[LcfSpec]:
        if self.kind == "cplus":
            return c_plus(GpParams(self.n, self.k))
        if self.kind == "cminus":
            return c_minus(GpParams(self.n, self.k))
        return None

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

    def involution_words(self, ascii_only: bool = False) -> str:
        return ",".join(
            format_word(q.via, ascii_only) for q in self.quotients if q.via is not None
        )


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
    halves = (k * k - 1) % 2 == 0 and ((k * k - 1) // 2) % n == 0
    assert halves == (q is not None and q % 2 == 0)
    if q is None or q % 2:
        return Classification(n, k, Case.NO_COVER, (), None)
    if k % 4 == 1:
        tri = WordTriple(n // 2, 0, 1)
        return Classification(
            n, k, Case.B1, (QuotientDesc("cplus", n, k, via=tri),), tri
        )
    tri = WordTriple(n // 2, 1, 1)
    return Classification(
        n, k, Case.B2, (QuotientDesc("cminus", n, k, via=tri),), tri
    )


def involution_family(p: GpParams) -> list[WordTriple]:
    """All covering involutions of a B1/B2 instance, as word triples,
    ascending in the shift."""
    c = classify(p)
    if c.case is Case.B1:
        return [WordTriple(a, 0, 1) for a in family_shifts(p.n, p.k)]
    if c.case is Case.B2:
        return [WordTriple(a, 1, 1) for a in family_shifts(p.n, p.k)]
    raise ValueError(f"GP({p.n},{p.k}) is case {c.case.value}, not B1/B2")


def quotient_lcf(p: GpParams, a: int) -> LcfSpec:
    """Jump sequence of the quotient along the family member with shift a:
    f_a(i) = a + i(k-1) for B1, f_a(i) = a - i(k+1) for B2.  For a = n/2
    these are exactly the C+/C- sequences."""
    n, k = p.n, p.k
    if a not in family_shifts(n, k):
        raise ValueError(f"shift {a} is not in the involution family of GP({n},{k})")
    case = classify(p).case
    if case is Case.B1:
        return rim_jumps(n, a, k - 1)
    if case is Case.B2:
        return rim_jumps(n, a, -(k + 1))
    raise ValueError(f"GP({n},{k}) is case {case.value}, not B1/B2")


_SYMMETRIC_PAIRS = frozenset(
    {(4, 1), (5, 2), (8, 3), (10, 2), (10, 3), (12, 5), (24, 5)}
)


def is_exceptional_pair(n: int, k: int) -> bool:
    """Pairs whose automorphism group exceeds the generic presentation."""
    return (n, k) in _SYMMETRIC_PAIRS
