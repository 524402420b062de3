"""stochord: stochastic ordering of classical discrete distributions.

Library surface:

- distributions: the five families, exact pmf/cdf/survival/support
- likelihood: ratio profiles, half-monotone shape, tail conditions
- ordering: closed-form and certified ordering decisions
- oracle: exact and truncated survival-comparison ground truth
- couplings: dominating samplers and the marginal test harness
- derivatives: parameter-derivative identities of the cdfs
- cli / suites: command-line front end and verification suites
"""

from .distributions import (
    Binomial,
    DistributionSpec,
    Hypergeometric,
    NegBinomial,
    Poisson,
    PoissonBinomial,
    SupportBounds,
    cdf,
    joint_support,
    mean,
    pmf,
    poisson_binomial_pmf,
    spec_from_json,
    spec_to_json,
    support,
    survival,
)
from .errors import (
    ConditionsViolated,
    DominationError,
    InconsistentStages,
    InfiniteSupport,
    InvalidOccupancy,
    InvalidSpec,
    LengthMismatch,
    ParameterOrder,
    StochordError,
    UnboundedProfile,
    UnsupportedFamily,
    UnsupportedPair,
)
from .exact import Scalar, parse_scalar
from .likelihood import (
    HmlrDecision,
    LikelihoodProfile,
    Shape,
    TailConditions,
    consecutive_ratio,
    hmlr_criterion,
    is_lr_ordered,
    likelihood_profile,
    lr_two_point_check,
    tail_conditions,
)
from .oracle import (
    DominanceReport,
    OraclePolicy,
    Relation,
    crossing_points,
    dominance,
    dominance_exact,
    dominance_truncated,
    survival_witnesses,
)
from .ordering import (
    OrderingVerdict,
    bc_sufficient,
    binomial_bc_criterion,
    decide,
    decide_closed_form,
    verdict_to_json,
)
from .couplings import (
    CouplingReport,
    CouplingSample,
    binom_poisson_coupling,
    binomial_explicit_coupling,
    box_choice_joint,
    chi_square_pvalue,
    levy_characteristics,
    levy_coupling,
    levy_tail_ratio,
    levy_tails_dominated,
    occupancy_coupling,
    occupancy_mixture,
    occupancy_pushforward,
    occupancy_transition_matrix,
    quantile_coupling,
    run_harness,
)
from .streams import DEFAULT_SEED, Stream, substream

__version__ = "0.1.0"
