"""Streaming kernel density estimation by stochastic approximation.

The package provides:

- regularly varying sequence plans for stepsizes, bandwidths and weights
  (:mod:`sakde.sequences`),
- the product Gaussian kernel, whose constants are functions of d
  (:mod:`sakde.kernels`),
- closed-form ground-truth densities (:mod:`sakde.densities`),
- the recursive estimator, its weighted closed form, its batch form at one
  point and the Rosenblatt baseline (:mod:`sakde.estimators`),
- leading-order bias/variance/MSE/MISE formulas, CLT parameters and
  confidence-interval calibration constants (:mod:`sakde.asymptotics`),
- a deterministic Monte Carlo harness for confidence-interval coverage
  (:mod:`sakde.mc`), the invariant checks shared by ``sakde check`` and the
  acceptance tests (:mod:`sakde.checks`) and a command line front end
  (:mod:`sakde.cli`).
"""

__version__ = "0.1.0"

from sakde.sequences import (
    BandwidthPlan,
    SequencePlan,
    StepsizePlan,
    bandwidth_plan,
    gs_index_diagnostic,
    lemma_limit,
    stepsize_from_weights,
    stepsize_plan,
)
from sakde.kernels import Kernel, gaussian_kernel
from sakde.densities import GaussianMixture, LinearImage, curvature, standard_gaussian
from sakde.estimators import (
    RecursiveEstimator,
    RosenblattEstimator,
    recursive_at_points,
    recursive_batch,
    weighted_closed_form,
)

__all__ = [
    "BandwidthPlan",
    "GaussianMixture",
    "Kernel",
    "LinearImage",
    "RecursiveEstimator",
    "RosenblattEstimator",
    "SequencePlan",
    "StepsizePlan",
    "bandwidth_plan",
    "curvature",
    "gaussian_kernel",
    "gs_index_diagnostic",
    "lemma_limit",
    "recursive_at_points",
    "recursive_batch",
    "standard_gaussian",
    "stepsize_from_weights",
    "stepsize_plan",
    "weighted_closed_form",
    "__version__",
]
