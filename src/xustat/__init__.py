"""Tail inference using extreme U-statistics.

A location-scale invariant estimator of the extreme value index built from
the top three order statistics of every size-m block, evaluated exactly in
O(n^2) through recursive log-space weights, together with its asymptotic
variance and bias constants, a GP maximum likelihood comparison estimator,
and a deterministic simulation harness.
"""

from .core import (
    ArgumentOutOfRange,
    BlockSizeOutOfRange,
    DegenerateSpacing,
    InstanceTooLarge,
    NonFiniteInput,
    NonPositiveArgument,
    PICKANDS_KERNEL,
    SortedSample,
    TailInferenceError,
    ThresholdOutOfRange,
    TooFewObservations,
    TopQKernel,
    pickands_kernel,
    sort_sample,
)
from .dist import DistributionSpec, RngStream, h_gamma, sample
from .ustat import (
    OverlapPmf,
    PickandsWeights,
    brute_force_ustat,
    overlap_pmf,
    pickands_ustat,
    pickands_ustat_grid,
    pickands_weights,
    topq_weighted_ustat,
)
from .estimators import (
    GpMlFit,
    excesses_over_threshold,
    gp_ml_fit,
)
from .asymptotics import (
    BiasEstimate,
    VarianceEstimate,
    bias_bk_mc,
    digamma_moments,
    erlang_neg_rho_moment,
    h_gamma_rho,
    sigma2_integral_mc,
    sigma2_kvar_mc,
)

__version__ = "0.1.0"
