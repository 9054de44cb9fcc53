"""splitinfer: inference on data-dependent model properties via repeated
sample-splitting and cross-fitting.

``import splitinfer`` loads no submodule. The package's public names and its
submodules resolve on first access (PEP 562): ``splitinfer.solve`` or
``from splitinfer import solve`` imports ``splitinfer.zestim`` then, and
``_EXPORTS`` says which module holds each name. So a caller pays only for the
modules it uses. ``import splitinfer.cli`` loads the modules of the
estimate, compare and gates runs, ``compare``, ``gates`` and ``adaptive``
among them because the benchmark's tracer wraps their functions when it
installs; ``sim`` and ``repro`` load only in the runs that call them (see
``cli``).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "data": ("Dataset", "Roles", "as_row_index_set", "complement", "ingest_csv"),
    "splits": ("SplitPlan", "generate_plan"),
    "learners": ("Learner", "Model", "builtin"),
    "evaluation": ("Block", "Evaluations", "cross_fit", "pool"),
    "moments": ("MomentFunction", "builtin_moment"),
    "zestim": ("ZEstimate", "per_split_estimates", "solve"),
    "inference": ("DeltaSpec", "InferenceReport", "named_reduction", "normal_ci", "sandwich",
                  "variance_inflation"),
    "compare": ("ComparisonResult", "compare_models", "compare_two_learners", "comparison_ci",
                "delta_vector", "one_sided_test"),
    "adaptive": ("AdaptiveCI", "AdaptiveConfig", "adaptive_ci"),
    "repro": ("ReproComponents", "ReproMeasure", "conditional_variance_curve", "repro_measure",
              "sigma_D_hat"),
    "gates": ("CateLearner", "GatesConfig", "baselines", "het_test", "repetition", "run_gates"),
    "sim": ("CopulaDGP", "ExperimentGrid", "copula_sample", "estimand_oracle", "hte_sample",
            "linear_cate_sample", "run_grid", "synthetic_base"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the library's submodules; ``cli`` and ``report`` are imported by path
# (``import splitinfer.cli``), so ``from splitinfer import *`` leaves them out
_SUBMODULES = ("adaptive", "compare", "data", "errors", "evaluation", "gates", "inference",
               "learners", "moments", "repro", "rng", "sim", "splits", "zestim")

__all__ = [*_MODULE_OF, *_SUBMODULES]


def __getattr__(name: str):
    """A public name, read from its module each time, or a submodule, which
    importing binds on the package."""
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
