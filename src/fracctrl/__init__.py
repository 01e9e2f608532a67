"""Spectral Petrov-Galerkin solver for optimal control of two-sided
fractional diffusion-advection-reaction equations, with quasi-linear
fast transforms and a projected-gradient optimizer."""

from .analysis import ConvergenceReport, convergence_study, eoc, weighted_error
from .fracparams import ExponentPair, OrderPrediction, lambda_coeff, predict_orders, solve_sigma
from .jacobi import JacobiParams, QuadratureRule, gauss_jacobi_rule, jacobi_norm_sq
from .solver import ControlFunction, OptimalTriple, ProblemSpec, SolverConfig, optimize
from .transforms import ConversionCache, SpectralFunction, chebyshev_expand, jacobi_to_jacobi

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport", "convergence_study", "eoc", "weighted_error",
    "ExponentPair", "OrderPrediction", "lambda_coeff", "predict_orders", "solve_sigma",
    "JacobiParams", "QuadratureRule", "gauss_jacobi_rule", "jacobi_norm_sq",
    "ControlFunction", "OptimalTriple", "ProblemSpec", "SolverConfig", "optimize",
    "ConversionCache", "SpectralFunction", "chebyshev_expand", "jacobi_to_jacobi",
    "__version__",
]
