"""Effective degree of black-box functions along interpolation paths.

The package fits low-order orthogonal-polynomial surrogates to a function
restricted to straight-line paths between data points and summarizes each
surrogate by a coefficient-weighted degree.  The measure is differentiable
in the sampled function values, so it doubles as a training regularizer.

Submodules
----------
basis      Chebyshev / Legendre recurrences and path design matrices.
sampling   Abscissa schemes on [0, 1] and the one place seeds are derived.
surrogate  Stacked damped least-squares fits, effective degree, analytic gradient.
reduce     Per-path PCA with deterministic sign and tie handling, batched over paths.
estimator  The batched path engine and dataset-level estimation over random paths.
polylab    Exact rational polynomials restricted to paths: degree-drop experiments.
net        Small dense networks, regularized training, square-activation study.
cli        Command-line entry points producing reproducible artifacts.
"""

__version__ = "0.7.0"

__all__ = ["__version__"]
