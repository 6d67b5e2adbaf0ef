"""Exact calculus of Steinitz numbers, saturated sets, and locally matrix
algebra spectra."""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .density import INFINITY, Surd, cmp_density, format_density, parse_density
from .saturated import (
    ALL_NATURALS,
    AllNaturals,
    FiniteType,
    Inclusion,
    InfType,
    SaturatedSet,
    Segment,
    TailRule,
    compare_inclusion,
    contains,
    density,
    equals_formal,
    format_set,
    max_element,
    mk_finite_type,
    mk_inf_type,
    parse_set,
    r_sub,
)
from .steinitz import (
    ONE,
    ParseError,
    SteinitzNumber,
    divide_by,
    divides,
    enumerate_omega,
    lcm,
    mul_natural,
    omega_contains,
    parse,
    parse_scaled,
    ratio_if_connected,
    scale,
)

__version__ = "0.1.0"

# The algebra and oracle names load with their modules on first access, so
# that a command which never reaches them never loads them.  The three modules
# above stay eager: the name ``density`` is the function saturated.density, and
# a first import of the submodule locmat.density later would rebind it.
_ALGEBRA_NAMES = (
    "AlgebraDescriptor", "ChainPresentation", "Stage", "corner", "embeds_as_approximative_corner", "is_unital",
    "isomorphic", "m_infinity", "matrix_over", "parse_descriptor", "realize", "spec_matrix", "spec_unital",
    "spectrum_of_chain",
)
_ORACLE_NAMES = (
    "AxiomViolation", "FiniteMatrixChain", "check_saturation_axioms", "equals_extensional", "sample_members",
)
_HOMES = dict.fromkeys(_ALGEBRA_NAMES, "algebra") | dict.fromkeys(_ORACLE_NAMES, "oracle")
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)] + list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
