"""splitinfer: inference on data-dependent model properties via repeated
sample-splitting and cross-fitting."""

from .data import Dataset, Roles, as_row_index_set, complement, ingest_csv
from .splits import SplitPlan, generate_plan
from .learners import Learner, Model, builtin
from .evaluation import Block, Evaluations, cross_fit, pool
from .moments import MomentFunction, builtin_moment
from .zestim import ZEstimate, per_split_estimates, solve
from .inference import (
    DeltaSpec,
    InferenceReport,
    named_reduction,
    normal_ci,
    sandwich,
    variance_inflation,
)
from .compare import (
    ComparisonResult,
    compare_models,
    compare_two_learners,
    comparison_ci,
    delta_vector,
    one_sided_test,
)
from .adaptive import AdaptiveCI, AdaptiveConfig, adaptive_ci
from .repro import (
    ReproComponents,
    ReproMeasure,
    conditional_variance_curve,
    repro_measure,
    sigma_D_hat,
)
from .gates import CateLearner, GatesConfig, baselines, het_test, repetition, run_gates
from .sim import (
    CopulaDGP,
    ExperimentGrid,
    copula_sample,
    estimand_oracle,
    hte_sample,
    linear_cate_sample,
    run_grid,
    synthetic_base,
)

__version__ = "0.1.0"
