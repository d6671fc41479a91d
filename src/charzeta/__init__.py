"""Point counts over finite fields, local and global zeta functions, and
special values for three conic-bundle surfaces (the canonical components
of the SL2 character varieties of the two-bridge links 5^2_1, 6^2_2 and
6^2_3).

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so a program, and
each CLI command, loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# the point sets every count, local zeta factor and check is taken over
SPACES = ("affine", "biprojective", "nonaffine")

_EXPORTS = {
    "finfield": ("Field", "FieldError", "is_prime", "make_field"),
    "surfaces": ("CountRecord", "SurfaceModel", "surface"),
    "varieties": ("BiprojectivePoint", "count_affine_brute", "count_biprojective_brute",
                  "count_nonaffine_brute", "singular_locus"),
    "fibercount": ("FiberReport", "classify_fiber", "count_fiberwise", "count_formula",
                   "degenerate_fibers", "fiberwise_totals"),
    "localzeta": ("LocalZetaFactors", "RecoveryError", "local_zeta_closed_form",
                  "recover_factors", "zeta_series_from_counts"),
    "globalzeta": ("CHI5", "CHI8", "CharacterDesc", "ElementaryTerm", "GlobalZetaExpr",
                   "ZetaFactorTerm", "check_local_zeta", "dedekind_expand", "euler_factor",
                   "global_expression", "main_term_expression", "verify_global"),
    "specialvalues": ("LaurentLeading", "QuadraticFieldData", "dirichlet_L",
                      "hurwitz_zeta_deflated", "laurent_leading", "mahler_measure_mc",
                      "regulator", "riemann_zeta", "verify_table1"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
