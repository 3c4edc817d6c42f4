"""Exact trace maps of Frobenius and Cartier operators over finite fields."""

__version__ = "0.1.0"

from .cartier import (
    inverse_cartier,
    inverse_cartier_top,
    trace_by_decomposition,
    trace_iterated,
    trace_poly_top,
    trace_rational_top,
)
from .field import FiniteField, Scalar
from .forms import DiffForm, TopForm, exterior_derivative
from .fsplit import FsplitVerdict, fedder_hypersurface, verify_witness
from .parsing import ParseError, parse_divisor, parse_form, parse_modulus, parse_poly
from .poly import NEG_INFINITY, Poly, RationalFn, monomials_upto
from .projective import (
    ContainmentError,
    DivisorSpec,
    MapVerdict,
    SectionSpace,
    SemilinearMap,
    map_verdict,
    pe_twist,
    section_space,
    trace_matrix,
)

__all__ = [
    "FiniteField", "Scalar",
    "Poly", "RationalFn", "NEG_INFINITY", "monomials_upto",
    "DiffForm", "TopForm", "exterior_derivative",
    "trace_poly_top", "trace_rational_top", "trace_iterated",
    "inverse_cartier", "inverse_cartier_top", "trace_by_decomposition",
    "DivisorSpec", "SectionSpace", "SemilinearMap", "MapVerdict",
    "section_space", "pe_twist", "trace_matrix", "map_verdict",
    "ContainmentError",
    "FsplitVerdict", "fedder_hypersurface", "verify_witness",
    "ParseError", "parse_poly", "parse_form",
    "parse_divisor", "parse_modulus",
]
