"""Point counts over finite fields, local and global zeta functions, and
special values for three conic-bundle surfaces (the canonical components
of the SL2 character varieties of the two-bridge links 5^2_1, 6^2_2 and
6^2_3)."""

from .finfield import Field, FieldError, is_prime, make_field
from .varieties import (BiprojectivePoint, CountRecord, SurfaceModel,
                        count_affine_brute, count_biprojective_brute,
                        count_nonaffine_brute, singular_locus, surface)
from .fibercount import (FiberReport, classify_fiber, count_fiberwise,
                         count_formula, degenerate_fibers, fiberwise_totals)
from .localzeta import (LocalZetaFactors, RecoveryError, local_zeta_closed_form,
                        recover_factors, zeta_series_from_counts)
from .globalzeta import (CHI5, CHI8, CharacterDesc, ElementaryTerm,
                         GlobalZetaExpr, ZetaFactorTerm, check_local_zeta,
                         dedekind_expand, euler_factor, global_expression,
                         main_term_expression, verify_global)
from .specialvalues import (LaurentLeading, QuadraticFieldData, dirichlet_L,
                            hurwitz_zeta_deflated, laurent_leading,
                            mahler_measure_mc, regulator, riemann_zeta,
                            verify_table1)

__version__ = "0.1.0"

__all__ = [
    "BiprojectivePoint", "CHI5", "CHI8", "CharacterDesc",
    "CountRecord", "ElementaryTerm", "FiberReport", "Field",
    "FieldError", "GlobalZetaExpr", "LaurentLeading", "LocalZetaFactors",
    "QuadraticFieldData", "RecoveryError", "SurfaceModel", "ZetaFactorTerm",
    "check_local_zeta", "classify_fiber",
    "count_affine_brute", "count_biprojective_brute", "count_fiberwise",
    "count_formula", "count_nonaffine_brute", "dedekind_expand", "dirichlet_L",
    "degenerate_fibers", "euler_factor", "fiberwise_totals",
    "global_expression", "hurwitz_zeta_deflated", "is_prime",
    "laurent_leading", "local_zeta_closed_form", "main_term_expression",
    "make_field", "mahler_measure_mc",
    "recover_factors", "regulator", "riemann_zeta", "singular_locus",
    "surface", "verify_global", "verify_table1", "zeta_series_from_counts",
]
