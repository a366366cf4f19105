"""Independent references that grade gpcover's answers.

Nothing in this module imports gpcover: every expected answer comes from a
published closed form, so a wrong program cannot also supply its own
grading key.  The ``check_*`` functions test each reference against the
program's exhaustive oracle at small n; a reference that fails one raises
``ReferenceMismatch`` and must not be used to grade anything.

Sources:

* isomorphism classes of GP(n,k): Steimle & Staton, Discrete Math. 2009 --
  GP(n,k) ~ GP(n,l) iff l = +-k or kl = +-1 (mod n);
* automorphism group orders: Frucht, Graver & Watkins, Proc. Cambridge
  Philos. Soc. 1971 -- 4n if k^2 = +-1 (mod n), else 2n, apart from seven
  exceptional pairs;
* Kronecker-cover classification and quotients: the closed form of the
  source paper (half-turn quotients for n = 2 mod 4, rim-switching
  quotients C+/C- for n = 0 mod 4), written here from the formulas.
"""
from __future__ import annotations

from typing import Callable, Optional

Edge = tuple[int, int]

# |Aut GP(n,k)| for the pairs outside the generic presentation.
EXCEPTIONAL_ORDERS = {
    (4, 1): 48,
    (5, 2): 120,
    (8, 3): 96,
    (10, 2): 120,
    (10, 3): 240,
    (12, 5): 144,
    (24, 5): 288,
}


class ReferenceMismatch(RuntimeError):
    """A reference disagrees with the oracle; it must not grade the program."""


def gp_pairs(n_min: int, n_max: int) -> list[tuple[int, int]]:
    """Every valid (n,k) with n_min <= n <= n_max and 1 <= k < n/2."""
    return [
        (n, k)
        for n in range(max(3, n_min), n_max + 1)
        for k in range(1, (n - 1) // 2 + 1)
    ]


def gp_isomorphic(n: int, k: int, l: int) -> bool:
    """Steimle-Staton: GP(n,k) ~ GP(n,l) iff l = +-k or kl = +-1 (mod n)."""
    return (l - k) % n == 0 or (l + k) % n == 0 or (k * l - 1) % n == 0 or (k * l + 1) % n == 0


def aut_order(n: int, k: int) -> int:
    """Frucht-Graver-Watkins group order of GP(n,k)."""
    if (n, k) in EXCEPTIONAL_ORDERS:
        return EXCEPTIONAL_ORDERS[(n, k)]
    return 4 * n if (k * k - 1) % n == 0 or (k * k + 1) % n == 0 else 2 * n


def _canon(edges) -> tuple[Edge, ...]:
    return tuple(sorted({(u, v) if u < v else (v, u) for u, v in edges}))


def gp_edges(n: int, k: int) -> tuple[Edge, ...]:
    """Edges of GP(n,k): outer u_i = i, inner v_i = n + i."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return _canon(edges)


def lcf_edges(n: int, jumps) -> tuple[Edge, ...]:
    """Ring 0-1-...-(n-1)-0 plus the chords {i, i + jumps[i]}."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + jumps[i]) % n) for i in range(n)]
    return _canon(edges)


def cover_case(n: int, k: int) -> Optional[str]:
    """"A1"/"A2"/"B1"/"B2" for a Kronecker cover GP(n,k), else None.

    Bipartite needs n even and k odd.  n = 2 (mod 4): always a cover via the
    half-turn (A1 when 4k < n, else A2).  n = 0 (mod 4): a cover iff n
    divides (k^2 - 1)/2 (B1 when k = 1 mod 4, else B2).  GP(10,3) has a
    second quotient; this reference names only its half-turn one.
    """
    if n % 2 or k % 2 == 0:
        return None
    if n % 4 == 2:
        return "A1" if 4 * k < n else "A2"
    if ((k * k - 1) // 2) % n:
        return None
    return "B1" if k % 4 == 1 else "B2"


def quotient_edges(n: int, k: int) -> tuple[Edge, ...]:
    """The closed-form quotient along the canonical involution, labelled as
    the orbit ranks of that involution: GP(n/2, k) or GP(n/2, n/2 - k) for
    the half-turn, and the ring-plus-matching graphs with jumps
    n/2 + i(k-1) (C+) or n/2 - i(k+1) (C-) for the rim switches."""
    case = cover_case(n, k)
    if case == "A1":
        return gp_edges(n // 2, k)
    if case == "A2":
        return gp_edges(n // 2, n // 2 - k)
    if case == "B1":
        return lcf_edges(n, [(n // 2 + i * (k - 1)) % n for i in range(n)])
    if case == "B2":
        return lcf_edges(n, [(n // 2 - i * (k + 1)) % n for i in range(n)])
    raise ValueError(f"GP({n},{k}) is not a Kronecker cover")


# ---------------------------------------------------------------------------
# Self-checks against the oracle.  ``api`` is the imported gpcover package.

def check_iso_rule(
    api, n_max: int, rule: Callable[[int, int, int], bool] = gp_isomorphic
) -> int:
    """Compare the verdict rule with canonical forms on every pair of
    GP(n,k), GP(n,l) with n <= n_max.  Returns the number of pairs checked."""
    checked = 0
    for n in range(3, n_max + 1):
        ks = range(1, (n - 1) // 2 + 1)
        forms = {k: api.canonical_form(api.gp(api.GpParams(n, k))) for k in ks}
        for k in ks:
            for l in ks:
                if rule(n, k, l) != (forms[k] == forms[l]):
                    raise ReferenceMismatch(
                        f"isomorphism rule says {rule(n, k, l)} for GP({n},{k}) "
                        f"vs GP({n},{l}); the oracle disagrees"
                    )
                checked += 1
    return checked


def check_order_rule(
    api, n_max: int, rule: Callable[[int, int], int] = aut_order
) -> int:
    """Compare the group-order rule with full automorphism enumeration."""
    pairs = gp_pairs(3, n_max)
    for n, k in pairs:
        found = len(api.automorphisms(api.gp(api.GpParams(n, k))))
        if rule(n, k) != found:
            raise ReferenceMismatch(
                f"order rule says {rule(n, k)} for GP({n},{k}); "
                f"the oracle enumerates {found} automorphisms"
            )
    return len(pairs)


def check_cover_rule(
    api,
    n_exist: int,
    n_quotient: int,
    case_rule: Callable[[int, int], Optional[str]] = cover_case,
    edges_rule: Callable[[int, int], tuple[Edge, ...]] = quotient_edges,
) -> int:
    """Two oracle checks of the cover reference.

    Existence (n <= n_exist): the rule names a case exactly when the
    exhaustive search finds a covering involution.  Quotients
    (n <= n_quotient): for every pair the rule calls a cover, the Kronecker
    cover of the reference quotient is isomorphic to GP(n,k), so the
    reference is a genuine quotient and not merely a graph of the right
    size.
    """
    checked = 0
    for n, k in gp_pairs(3, n_exist):
        g = api.gp(api.GpParams(n, k))
        searched = bool(api.kronecker_involutions(g))
        if (case_rule(n, k) is not None) != searched:
            raise ReferenceMismatch(
                f"cover rule says {case_rule(n, k)} for GP({n},{k}); "
                f"the oracle search finds a covering involution: {searched}"
            )
        checked += 1
    for n, k in gp_pairs(3, n_quotient):
        if case_rule(n, k) is None:
            continue
        try:
            q = api.graph(n, edges_rule(n, k))
        except ValueError as exc:
            raise ReferenceMismatch(
                f"reference quotient of GP({n},{k}) is not a simple graph: {exc}"
            ) from exc
        if not api.is_isomorphic(api.kronecker_cover(q), api.gp(api.GpParams(n, k))):
            raise ReferenceMismatch(
                f"reference quotient of GP({n},{k}) does not cover GP({n},{k})"
            )
        checked += 1
    return checked
