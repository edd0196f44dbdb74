"""Coverage depth and maximum-likelihood decoding for composite DNA alphabets.

The library answers two families of questions about composite symbols
(probability mixtures written into a single synthesis position):

* how many whole-sequence reads are expected until subset-coded information is
  recovered, under full recovery, partial recovery, and random access to one of
  several labeled sequences (:mod:`cdna.coverage`, checked empirically by
  :mod:`cdna.simulate`);

* how to choose a fixed number of composite symbols so that maximum-likelihood
  decoding from a finite read count succeeds as often as possible
  (:mod:`cdna.codes`, with binary-alphabet optima in :mod:`cdna.binary`).
"""

from .binary import (
    binary4_alpha,
    binary4_beta,
    binary_threshold,
    construct_binary4,
    optimize_binary4_grid,
)
from .codes import (
    DEFAULT_MAX_ENUM,
    TIE_TOLERANCE,
    CodeEvaluation,
    CompositeCode,
    Decoder,
    construct_base_plus_uniform,
    construct_distinct_support,
    construct_grid_code,
    custom_decoder_from_table,
    decoding_region,
    evaluate_code,
    mld_decode,
    mld_decoder,
    self_decoding_probability,
)
from .coverage import (
    BoundPair,
    CoverageParams,
    coverage_bounds,
    expected_coverage,
    expected_coverage_closed_pairs,
    expected_coverage_exact,
    expected_coverage_partial,
    random_access_expectation,
)
from .model import (
    CompositeSymbol,
    ObservedDistribution,
    UnsupportedRangeError,
    base_symbol,
    enumerate_observed,
    observed_grid_size,
    uniform_symbol,
)
from .simulate import (
    SimConfig,
    SimReport,
    run_simulation,
    trial_rng,
)

__version__ = "0.1.0"

__all__ = [
    "BoundPair",
    "CodeEvaluation",
    "CompositeCode",
    "CompositeSymbol",
    "CoverageParams",
    "Decoder",
    "DEFAULT_MAX_ENUM",
    "ObservedDistribution",
    "SimConfig",
    "SimReport",
    "TIE_TOLERANCE",
    "UnsupportedRangeError",
    "base_symbol",
    "binary4_alpha",
    "binary4_beta",
    "binary_threshold",
    "construct_base_plus_uniform",
    "construct_binary4",
    "construct_distinct_support",
    "construct_grid_code",
    "coverage_bounds",
    "custom_decoder_from_table",
    "decoding_region",
    "enumerate_observed",
    "evaluate_code",
    "expected_coverage",
    "expected_coverage_closed_pairs",
    "expected_coverage_exact",
    "expected_coverage_partial",
    "mld_decode",
    "mld_decoder",
    "observed_grid_size",
    "optimize_binary4_grid",
    "random_access_expectation",
    "run_simulation",
    "self_decoding_probability",
    "trial_rng",
    "uniform_symbol",
]
