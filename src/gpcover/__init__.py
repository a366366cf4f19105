"""Generalized Petersen graphs, Kronecker covers, and their quotients.

Here ``census`` and ``classify`` are the functions, which hide the modules of
the same names: reach those with ``importlib.import_module("gpcover.census")``."""

from .graphs import (
    Graph,
    GraphFormatError,
    bipartition,
    connected_components,
    decode_graph6,
    encode_graph6,
    girth,
    graph,
    to_dot,
)
from .families import (
    GpParams,
    LcfSpec,
    gp,
    h_graph,
    lcf,
    lcf_violations,
)
from .perms import (
    Perm,
    WordTriple,
    compose,
    desargues_half_turn,
    format_word,
    from_triple,
    identity,
    inverse,
    is_automorphism,
    power,
    reflection,
    rim_swap,
    rotation,
)
from .covers import (
    NotKroneckerInvolution,
    is_kronecker_involution,
    kronecker_cover,
    kronecker_involution_failure,
    natural_swap,
    quotient,
)
from .classify import (
    Arith,
    Case,
    Classification,
    QuotientDesc,
    arith,
    classify,
    family_shifts,
    involution_family,
    q_value,
    quotient_lcf,
    two_adic,
)
from .oracle import (
    SearchBoundExceeded,
    automorphisms,
    canonical_form,
    is_isomorphic,
    kronecker_involutions,
    quotients_up_to_iso,
)
from .census import CensusRow, VerifyReport, census, rows_to_csv, rows_to_json, verify

__version__ = "0.1.0"
