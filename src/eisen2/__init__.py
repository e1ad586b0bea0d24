"""Exact q-series engine and verification harness for Eisenstein series
of level 1 and level 2.

All arithmetic is over exact rationals; every identity is certified
coefficient-by-coefficient up to a configurable truncation order.
"""

from .arith import (
    delta8_oracle,
    r_count,
    r_oracle,
    sigma,
    sigma_sharp,
    sigma_star,
    tau_table,
)
from .catalog import CrossCheckMismatch, SeriesCatalog
from .graded import (
    GradedPoly,
    check_positivity,
    decompose_modular,
    e_star_poly,
    gp_evaluate,
    serre_delta,
    serre_partial,
)
from .qseries import QSeries, ZeroConstantTerm, first_difference, qs_det
from .scalars import PiScaled, bernoulli, check_scalar_recursion, lambda_even, zeta_even

__version__ = "0.1.0"

__all__ = [
    "CrossCheckMismatch",
    "GradedPoly",
    "PiScaled",
    "QSeries",
    "SeriesCatalog",
    "ZeroConstantTerm",
    "bernoulli",
    "check_positivity",
    "check_scalar_recursion",
    "decompose_modular",
    "delta8_oracle",
    "e_star_poly",
    "first_difference",
    "gp_evaluate",
    "lambda_even",
    "qs_det",
    "r_count",
    "r_oracle",
    "serre_delta",
    "serre_partial",
    "sigma",
    "sigma_sharp",
    "sigma_star",
    "tau_table",
    "zeta_even",
]
