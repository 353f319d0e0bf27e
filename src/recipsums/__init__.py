"""Reciprocal-power sums, sum-product growth, and covering counts mod p.

The public names below load their submodule on first access (PEP 562), so
``import recipsums`` alone imports neither numpy nor any layer module, and
the command line can configure numpy before its first import.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "basesets": (
        "BaseSetSpec",
        "DistinctnessReport",
        "MultiplicativityReport",
        "build_prime_reciprocal_set",
        "build_smooth_set",
        "check_multiplicative_conditions",
        "compute_u",
        "primes_up_to",
    ),
    "errors": (
        "BoundViolated",
        "EmptyBase",
        "Error",
        "FieldMismatch",
        "IterationCap",
        "NonPositiveBeta",
        "NonPositiveTheta",
        "NonPositiveU",
        "NotInvertible",
        "NotPrime",
        "Stalled",
        "Unreachable",
    ),
    "expsums": (
        "BilinearReport",
        "CoveringPositivity",
        "ExpSumProfile",
        "check_covering_positivity",
        "compute_J",
        "covering_counts",
        "covering_counts_fourier",
        "exp_sum_profile",
        "exponent_excess",
        "f_profile",
        "minimal_covering_J",
        "pair_product_multiplicity",
        "verify_bilinear_bound",
    ),
    "field": ("PrimeField",),
    "growth": (
        "GrowthConfig",
        "GrowthStep",
        "GrowthTrace",
        "grow_step",
        "grow_until",
        "n_bound",
        "productset",
        "sumset",
        "term_budget",
    ),
    "represent": (
        "LayerTable",
        "ReprProblem",
        "Witness",
        "build_layer_table",
        "min_terms",
        "n_max",
        "scan",
    ),
    "sets": ("ResidueSet",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
