"""Exact computation of multidegrees of toric polar and gradient maps of
projective hypersurfaces, with the Chern-Schwartz-MacPherson class and Euler
characteristic of the standard complement derived from them.

All arithmetic happens over a large prime field with randomized choices and
trial agreement; the hot term arithmetic runs in one small pure-Python
kernel, `toricpolar._kernel_py`.
"""

from .classes import (ChowClassVector, check_union_general_section,
                      csm_complement_of_hypersurface, csm_standard_complement,
                      deg_from_milnor_general_position,
                      euler_divisor_complement, euler_standard_complement,
                      gradient_from_toric, toric_from_gradient)
from .constructions import (CheckResult, CorpusEntry, MonomialMatrix,
                            birational_family, cremona_poly, default_corpus,
                            dolgachev_quadric, format_corpus,
                            monomial_sum_polynomial, parse_corpus, pyramid,
                            random_monomial_matrix, verify_propositions)
from .curves import (PlaneCurveReport, distinct_intersections_off_coordinates,
                     fundamental_incidence, milnor_at_point,
                     plane_degree_formula, reducible_composition_check,
                     tangency_contribution, total_milnor)
from .errors import (ParseError, PreconditionError, SpecializationError,
                     ToricPolarError)
from .field import DEFAULT_PRIME, PrimeField, is_prime
from .gcdtools import (binary_form_distinct_roots, multivariate_gcd,
                       squarefree_part)
from .groebner import (GroebnerBasis, HilbertData, Ideal, buchberger,
                       eliminate, hilbert_dim_degree, intersect,
                       projective_dimension, saturate, vector_space_dimension)
from .maps import (MultidegreeVector, RandomizationConfig, RationalMapSpec,
                   gradient_map, monomial_pullback, multidegrees,
                   random_translate, topological_degree, toric_polar_map)
from .parse import parse_polynomial
from .poly import (GREVLEX, LEX, MonomialOrder, Polynomial, block_order,
                   euler_identity_check)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
