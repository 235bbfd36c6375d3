"""weakid: exact verification of the weak identities of symmetric 2x2 matrices.

The toolkit checks, degree by degree and in exact rational arithmetic, that
the weak polynomial identities of the pair (2x2 matrices, symmetric 2x2
matrices) over a field of characteristic zero are generated by the standard
identity of degree four and the metabelian identity, together with the
supporting decompositions and graded-dimension equalities.
"""

__version__ = "0.1.0"

from .expr import ParseError, parse_poly
from .freealg import (NcPoly, circ, comm, involution, left_normed, render,
                      standard_poly, substitute)
from .matrep import is_weak_identity, weak_identity_witness
from .tideal import (consequences_span, default_generators, is_consequence,
                     metabelian, verify_degree)

__all__ = [
    "__version__",
    "NcPoly",
    "ParseError",
    "parse_poly",
    "circ",
    "comm",
    "involution",
    "left_normed",
    "render",
    "standard_poly",
    "substitute",
    "is_weak_identity",
    "weak_identity_witness",
    "consequences_span",
    "default_generators",
    "is_consequence",
    "metabelian",
    "verify_degree",
]
