"""Point counts over finite fields, local and global zeta functions, and
special values for three conic-bundle surfaces (the canonical components
of the SL2 character varieties of the two-bridge links 5^2_1, 6^2_2 and
6^2_3).

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so a program, and
each CLI command, loads only the modules it uses.  It also holds _record,
the decorator that makes each of the package's record classes a frozen
value type.
"""

import importlib

__version__ = "0.1.0"

# the point sets every count, local zeta factor and check is taken over
SPACES = ("affine", "biprojective", "nonaffine")
# the registered surfaces, in the order --surface all runs them
SURFACE_IDS = ("L0", "L1", "L2")

_EXPORTS = {
    "finfield": ("Field", "FieldError", "is_prime", "make_field"),
    "surfaces": ("CountTotals", "SurfaceModel", "surface"),
    "varieties": ("brute_totals",),
    "fibercount": ("BiprojectivePoint", "count_formula", "degenerate_fibers", "fiberwise_totals",
                   "singular_locus"),
    "localzeta": ("LocalZetaFactors", "RecoveryError", "recover_factors"),
    "globalzeta": ("CHI5", "CHI8", "CharacterDesc", "ElementaryTerm", "GlobalZetaExpr",
                   "ZetaFactorTerm", "check_local_zeta", "euler_factor",
                   "global_expression", "main_term_expression", "verify_global"),
    "specialvalues": ("LaurentLeading", "QuadraticFieldData", "dirichlet_L",
                      "hurwitz_zeta_deflated", "laurent_leading", "mahler_measure_mc",
                      "regulator", "riemann_zeta", "verify_table1"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _record(cls):
    """Make cls a frozen record of its annotated fields, in order.

    As with a frozen dataclass, a record is built from positional, keyword
    or default values and refuses assignment and deletion; it equals only a
    record of its own class with equal fields, hashes as the tuple of its
    fields, and reprs as Name(field=value, ...).  Unlike the dataclass
    decorator it imports nothing (that module loads `inspect` and `ast`)
    and compiles no methods per class, which a cold call would pay for.
    """
    fields = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    arity = len(fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = _bind_fields(cls.__name__, fields, defaults, args, kwargs)
        self.__dict__.update(zip(fields, args))  # in field order, as eq and repr read it

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = __init__
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__repr__ = _record_repr
    cls.__setattr__ = cls.__delattr__ = _record_frozen
    return cls


def _bind_fields(name, fields, defaults, args, kwargs):
    """The field values, in order, of a call with keywords or defaults."""
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    values = dict(zip(fields, args))
    for key, value in kwargs.items():
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in values:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values[key] = value
    missing = [key for key in fields if key not in values and key not in defaults]
    if missing:
        raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
    return [values[key] if key in values else defaults[key] for key in fields]


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return self.__dict__ == other.__dict__
    return NotImplemented


def _record_hash(self):
    return hash(tuple(self.__dict__.values()))


def _record_repr(self):
    fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
    return f"{type(self).__qualname__}({fields})"


def _record_frozen(self, name, *value):
    raise AttributeError(f"cannot assign or delete {name!r}: {type(self).__name__} is frozen")


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
