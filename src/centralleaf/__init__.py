"""centralleaf: exact invariants of sigma-conjugacy classes.

Newton points, Kottwitz classes, central-leaf dimensions with a slope
oracle, admissible sets, lattice censuses of affine Deligne-Lusztig sets,
and truncated Witt-vector/display verification; all arithmetic exact.

Each exported name loads its module on first access: ``import centralleaf``
compiles no submodule, and a caller compiles only the modules it reads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# name -> the module that defines it, imported on first access
_HOME = {name: module for module, names in {
    "affine": ("AffineElement", "KottwitzClass", "NewtonPoint",
               "SigmaClassPartition", "adjoint_lift", "admissible_set",
               "compose", "element", "enumerate_elements",
               "enumerate_sigma_classes", "identity_element", "invert",
               "kottwitz", "length", "newton_point", "rep_lift", "sigma_apply",
               "sigma_conjugate", "simple_element", "translation_element"),
    "errors": ("BudgetExceededError", "CentralLeafError", "ConfigurationError",
               "ConsistencyError", "DatumMismatchError", "InconclusiveError",
               "NotPDivisibleError", "PreconditionError", "SingularInputError",
               "UnsupportedOperationError"),
    "isocrystal": ("SlopeDivisibilityReport", "is_completely_slope_divisible"),
    "lattices": ("ADLVCensus", "ADLVPoint", "LatticeModel", "adlv_points",
                 "enumerate_lattices"),
    "leaves": ("CrossCheckReport", "LeafReport", "cross_check_dimension",
               "leaf_report", "mu_average", "neutral_acceptable"),
    "rootdata": ("CoinvariantLattice", "RootDatum", "build_classical",
                 "datum_from_document", "dominance_leq", "dominant_rep",
                 "is_dominant", "parse_group_name"),
    "slopes": ("MonomialIsocrystal", "RationalIsocrystal", "WeightedRep",
               "adjoint_rep", "monomial_from_rational", "restriction_of_scalars",
               "slopes_charpoly", "slopes_monomial", "slopes_via_weights",
               "standard_rep"),
    "witt": ("DisplayDatum", "DisplayReport", "NilpotentPolyRing", "WittVector",
             "ZModRing", "display_check", "display_from_element",
             "int_of_witt_digits", "structure_polynomials", "witt_add",
             "witt_digits_of_int", "witt_frobenius", "witt_ghost", "witt_mul",
             "witt_neg", "witt_verschiebung"),
}.items() for name in names}
__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))

