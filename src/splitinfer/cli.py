"""Command-line front end.

Subcommands: estimate, compare, gates, repro, simulate, validate-config. Every
run is driven by a JSON config (schema-validated, unknown keys rejected) plus
a handful of overriding flags; every report embeds the resolved config and the
master seed, is schema-versioned, and is written atomically. A key the config
leaves out keeps the library's default. Exit codes: 0 success; 1 usage or
config error, including an unknown flag or a flag value of the wrong type, an
unreadable ``data.path``, a negative ``--seed``, a ``--threads`` other than
1 (every run fits its splits one after another; the flag stays so that
command lines passing ``--threads 1`` still parse), and a report or grid CSV
that cannot be written; 2 runtime failure, including a CSV cell that is not
a number, a CSV that is not UTF-8, and a learner that fails to train (the
message names the split (m, k), or the compare baseline).

The schema check reads the flat ``schemas/config.schema.json`` with two small
functions for the JSON Schema 2020-12 keywords it uses: ``type``, ``enum``,
``required``, ``properties``, ``additionalProperties`` (``false``),
``dependentRequired``, ``items``, ``minItems`` and the four bounds. Loading
the schema refuses any other keyword, so it cannot grow a rule the check
would skip, and starting the CLI loads no JSON Schema library. A rule that
needs a conditional lives where the decision is made: ``sim.dgp_sampler``
checks each generator kind's options and modes, and ``resolve_config`` that
a simulate config has ``simulate`` and that ``data`` names one source.

``validate-config`` runs the schema check and a run's resolution
(``resolve_config``: names, and the plan checks that need no data), so a bad
name or plan fails it at the same JSON pointer; the checks that need the
data (n against K, b or L, the CSV, control columns) stay with the runs.

``h`` names the scalar reduction of theta that the CIs and tests are about:
"identity" (theta_0), "coordinate:j" (theta_j) or "diff:i-j"
(theta_i - theta_j, with i != j), every index below the moment's dimension.

Data come from a CSV (``data.path``) or from a synthetic generator
(``data.synthetic``: any kind of ``sim.dgp_sampler``, i.e. "base",
"linear_cate", "gauss_linear", "copula" or "hte", with the options of its
kind, plus ``n`` and ``seed``; default: 400 rows of "base" with seed 0), not
from both.

Starting the CLI loads the modules of the estimate, compare and gates runs,
and numpy with them, but not ``sim`` or ``repro``. ``sim`` loads when a run
needs a generator: a config without ``data.path``, or ``simulate``; ``repro``
loads in ``run_repro``. ``compare``, ``gates`` and ``adaptive`` still load at
the start, although only some runs call them: the benchmark's tracer wraps
functions by name in the modules already loaded when it installs, and these
three hold functions it wraps. ``sim`` and ``repro`` hold none, and a module
imported after the tracer installs binds the wrapped functions, since the
tracer rebinds each one in the module that defines it.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import sys
from importlib import resources

from . import adaptive as adaptive_mod
from . import compare as compare_mod
from . import gates as gates_mod
from .data import Roles, ingest_csv
from .errors import ConfigInvalid, SplitInferError, ZeroVariance
from .evaluation import cross_fit, learner_seed
from .inference import named_reduction, normal_ci
from .learners import builtin
from .moments import AverageMoment, builtin_moment
from .report import SCHEMA_VERSION, write_report
from .rng import derived_seed
from .splits import check_plan, generate_plan
from .zestim import solve

DEFAULTS = {
    "plan": {"M": 100, "K": 3, "b": None, "seed": 0},
    "learner": "ols",
    "moment": "mse",
    "variant": 2,
    "h": "identity",
    "alpha": 0.05,
}


def load_schema(name: str) -> dict:
    with resources.files("splitinfer.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


# the check would silently skip a keyword it does not implement, so loading a
# schema with any keyword outside these sets fails
_ANNOTATIONS = frozenset({"$schema", "title"})
_KEYWORDS = frozenset({
    "type", "enum", "required", "properties", "additionalProperties", "dependentRequired",
    "items", "minItems", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
})
_TYPES = {"string": str, "boolean": bool, "null": type(None), "array": list, "object": dict,
          "number": (int, float), "integer": (int, float)}
_BOUNDS = {"minimum": (operator.lt, "below the minimum"),
           "maximum": (operator.gt, "above the maximum"),
           "exclusiveMinimum": (operator.le, "not above the exclusive minimum"),
           "exclusiveMaximum": (operator.ge, "not below the exclusive maximum")}


def _is_type(value, name: str) -> bool:
    """JSON type membership: a bool is no number, and an integral float is an integer."""
    if name in ("number", "integer") and isinstance(value, bool):
        return False
    return isinstance(value, _TYPES[name]) and (
        name != "integer" or isinstance(value, int) or value.is_integer())


def _names(rule) -> list:
    """The type names of a ``type`` rule: one name or a list of them."""
    return [rule] if isinstance(rule, str) else rule


def _equal(a, b) -> bool:
    """JSON equality against a scalar: true is not 1, and 1 is 1.0."""
    return a is b if isinstance(a, bool) or isinstance(b, bool) else a == b


def _check_schema(schema, where: str = "#") -> None:
    """Raise ``ValueError`` if ``schema`` uses a keyword outside ``_KEYWORDS``
    and ``_ANNOTATIONS``, an unknown type, an ``additionalProperties`` other
    than ``false``, or an ``enum`` value that is not a JSON scalar."""
    if not isinstance(schema, dict):
        raise ValueError(f"{where}: a schema must be an object")
    for key, rule in schema.items():
        at = f"{where}/{key}"
        if key not in _KEYWORDS | _ANNOTATIONS:
            raise ValueError(f"{at}: unsupported schema keyword {key!r}")
        if key == "properties":
            for name, sub in rule.items():
                _check_schema(sub, f"{at}/{name}")
        elif key == "items":
            _check_schema(rule, at)
        elif key == "type" and not set(_names(rule)) <= _TYPES.keys():
            raise ValueError(f"{at}: unknown type in {rule!r}")
        elif key == "additionalProperties" and rule is not False:
            raise ValueError(f"{at}: only false is supported")
        elif key == "enum" and not all(isinstance(v, (str, int, float, bool, type(None)))
                                       for v in rule):
            raise ValueError(f"{at}: only JSON scalars are supported")


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each rule of ``schema`` that ``value`` breaks."""
    is_array, is_object = isinstance(value, list), isinstance(value, dict)
    for key, rule in schema.items():
        if key == "type" and not any(_is_type(value, name) for name in _names(rule)):
            yield path, f"{value!r} is not of type {' or '.join(_names(rule))}"
        elif key == "enum" and not any(_equal(value, v) for v in rule):
            yield path, f"{value!r} is not one of {rule!r}"
        elif key in _BOUNDS and _is_type(value, "number") and _BOUNDS[key][0](value, rule):
            yield path, f"{value!r} is {_BOUNDS[key][1]} {rule!r}"
        elif key == "items" and is_array:
            for i, item in enumerate(value):
                yield from _schema_errors(item, rule, path + (i,))
        elif key == "minItems" and is_array and len(value) < rule:
            yield path, f"{value!r} has fewer than minItems {rule} items"
        elif key == "properties" and is_object:
            for name, sub in rule.items():
                if name in value:
                    yield from _schema_errors(value[name], sub, path + (name,))
        elif key == "required" and is_object:
            for name in rule:
                if name not in value:
                    yield path, f"the required key {name!r} is missing"
        elif key == "dependentRequired" and is_object:
            for name, needed in rule.items():
                for other in needed if name in value else ():
                    if other not in value:
                        yield path, f"the key {other!r} is required with {name!r}"
        elif key == "additionalProperties" and is_object:
            extra = [repr(name) for name in value if name not in schema.get("properties", {})]
            if extra:
                yield path, f"additionalProperties is false: unknown key(s) {', '.join(extra)}"


@functools.cache
def _config_schema() -> dict:
    schema = load_schema("config.schema.json")
    _check_schema(schema)
    return schema


def validate_config(config: dict) -> None:
    """Check ``config`` against ``schemas/config.schema.json``.

    The schema may use only ``type``, ``enum``, ``required``, ``properties``,
    ``additionalProperties`` (``false``), ``dependentRequired``, ``items``,
    ``minItems`` and the four bounds, with the 2020-12 meaning (an integral
    float is an integer, and a bool is no number). The first broken rule in
    path order raises ``ConfigInvalid``.
    """
    errors = sorted(_schema_errors(config, _config_schema()), key=lambda error: error[0])
    if errors:
        path, message = errors[0]
        raise ConfigInvalid("/" + "/".join(str(p) for p in path), message)


def resolve_config(config: dict, args) -> dict:
    resolved = {**config}
    plan = {**DEFAULTS["plan"], **resolved.get("plan", {})}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigInvalid("/plan/seed", f"--seed must be non-negative, got {args.seed}")
        plan["seed"] = args.seed
    resolved["plan"] = plan
    for key in ("learner", "moment", "variant", "h", "alpha"):
        resolved.setdefault(key, DEFAULTS[key])
    if getattr(args, "adaptive", False):
        if config["method"] != "estimate":
            raise ConfigInvalid("/estimate/adaptive", f"--adaptive applies to estimate only, "
                                                      f"not {config['method']!r}")
        resolved.setdefault("estimate", {})
        resolved["estimate"]["adaptive"] = True
    output = resolved.setdefault("output", {})
    if args.out:
        output["path"] = args.out
    if getattr(args, "emit_plan", False):
        output["emit_plan"] = True
    if getattr(args, "emit_sigma", False):
        output["emit_sigma"] = True
    _resolve_names(resolved)
    _check_plan(resolved, config.get("plan", {}))
    return resolved


def _given(section: dict, *keys: str) -> dict:
    """The entries of ``section`` under ``keys`` that the config sets, to be
    forwarded as keyword arguments; a key left out keeps the library default."""
    return {key: section[key] for key in keys if key in section}


def _resolve_names(config: dict) -> None:
    """Resolve every moment, reduction, learner, grid method and data
    generator now, and check that an adaptive estimate has an average-type
    moment, that a simulate config has its ``simulate`` section and that
    ``data`` names one source, so that a bad one is a config error with its
    JSON pointer, not a failure mid-run."""
    sim_cfg = config.get("simulate")
    if config["method"] == "simulate" and sim_cfg is None:
        raise ConfigInvalid("/", "the required key 'simulate' is missing")
    mf = _resolved("/moment", builtin_moment, config["moment"])
    _resolved("/h", named_reduction, config["h"], mf.dim)
    if (config["method"] == "estimate" and config.get("estimate", {}).get("adaptive")
            and not isinstance(mf, AverageMoment)):
        raise ConfigInvalid("/estimate/adaptive", f"the adaptive CI needs an average-type "
                                                  f"moment, not {config['moment']!r}")
    learners = {"/learner": config["learner"]}
    learners.update((f"/learners/{i}", name) for i, name in enumerate(config.get("learners", ())))
    learners.update((f"/compare/{key}", name) for key, name in config.get("compare", {}).items()
                    if key in ("baseline", "against_learner"))
    for pointer, name in learners.items():
        _resolved(pointer, builtin, name)
    data_cfg = config.get("data") or {}
    if "path" in data_cfg and "synthetic" in data_cfg:
        raise ConfigInvalid("/data", "data.path and data.synthetic are two sources; give one")
    if "path" in data_cfg and sim_cfg is None:
        return  # a CSV run draws no data, so it does not load the generators
    from . import sim
    if "path" not in data_cfg:
        _resolved("/data/synthetic", sim.dgp_sampler, _synthetic(data_cfg)[0], "base")
    if sim_cfg is not None:
        for i, method in enumerate(sim_cfg["methods"]):
            if method not in sim.METHOD_RUNNERS:
                raise ConfigInvalid(f"/simulate/methods/{i}", f"unknown grid method {method!r}")
        _resolved("/simulate/dgp", sim.dgp_sampler, sim_cfg.get("dgp", {}))


def _check_plan(config: dict, given: dict) -> None:
    """Make the plan checks that need no data: K=1 needs b, K > 1 takes none,
    GATES needs J, K and L of at least 2, and ``given``, the plan the config
    writes, has no K or b for simulate. The runs check n against K, b and L."""
    plan = config["plan"]
    if config["method"] == "simulate":
        for key in ("K", "b"):
            if key in given:
                raise ConfigInvalid(f"/plan/{key}", "simulate takes K from simulate.K_list "
                                                    "and b = n // 2 at K = 1")
    elif config["method"] == "gates":
        _gates_config(config)
        _resolved("/plan/b", check_plan, plan["M"], plan["K"], plan["b"])
    elif config["method"] in ("estimate", "compare", "repro"):
        _resolved("/plan", check_plan, plan["M"], plan["K"], plan["b"])


def _gates_config(config: dict) -> gates_mod.GatesConfig:
    """The run's ``GatesConfig``, whose checks are the GATES plan checks."""
    plan_cfg = config["plan"]
    learner_names = config.get("learners") or [config["learner"]]
    learners = tuple(gates_mod.CateLearner(builtin(name)) for name in learner_names)
    return _resolved("/plan/K", gates_mod.GatesConfig, learners=learners, M=plan_cfg["M"],
                     K=plan_cfg["K"], alpha=config["alpha"],
                     **_given(config.get("gates", {}), "L", "J", "controls"))


def _resolved(pointer: str, resolve, *args, **kwargs):
    try:
        return resolve(*args, **kwargs)
    except (SplitInferError, ValueError) as exc:
        raise ConfigInvalid(pointer, str(exc)) from None


def _synthetic(data_cfg: dict) -> tuple[dict, int, int]:
    """``data.synthetic`` split into its generator spec, n and seed."""
    spec = dict(data_cfg.get("synthetic", {}))
    return spec, int(spec.pop("n", 400)), int(spec.pop("seed", 0))


def build_dataset(config: dict):
    data_cfg = config.get("data") or {}
    if "path" in data_cfg:
        try:
            return ingest_csv(data_cfg["path"], Roles.from_mapping(data_cfg["schema"]),
                              **_given(data_cfg, "missing_policy", "missing_values"))
        except OSError as exc:
            raise ConfigInvalid("/data/path", f"cannot read the CSV: {exc}") from None
    from . import sim
    spec, n, seed = _synthetic(data_cfg)
    return sim.dgp_sampler(spec, "base")(n, seed)


# ---------------------------------------------------------------------------
# subcommand implementations


def run_estimate(config: dict) -> dict:
    d = build_dataset(config)
    plan_cfg = config["plan"]
    plan = _resolved("/plan", generate_plan, d.n, plan_cfg["M"], plan_cfg["K"], plan_cfg["b"],
                     plan_cfg["seed"])
    learner = builtin(config["learner"])
    mf = builtin_moment(config["moment"])
    ev = cross_fit(plan, d, learner, seed=derived_seed(plan_cfg["seed"], 1))
    est = solve(config["variant"], mf, ev)
    h = named_reduction(config["h"], mf.dim)
    results = {"estimate": est.to_jsonable()}
    est_cfg = config.get("estimate", {})
    normal = None
    try:
        normal = normal_ci(ev, est, h, config["alpha"])
        results["inference"] = normal.to_jsonable()
    except ZeroVariance:
        # the adaptive CI is built for a zero variance; without it, fail
        if not est_cfg.get("adaptive"):
            raise
    if est_cfg.get("adaptive"):
        # the adaptive CI takes only one-dimensional moments, whose h is theta_0
        cfg = adaptive_mod.AdaptiveConfig(alpha=config["alpha"],
                                          **_given(est_cfg, "c_gamma", "grid_points"))
        ci = adaptive_mod.adaptive_ci(mf, ev, est, normal, cfg)
        results["adaptive"] = ci.to_jsonable()
    return {"results": results, "plan": plan}


def run_compare(config: dict) -> dict:
    d = build_dataset(config)
    plan_cfg = config["plan"]
    plan = _resolved("/plan", generate_plan, d.n, plan_cfg["M"], plan_cfg["K"], plan_cfg["b"],
                     plan_cfg["seed"])
    mf = builtin_moment(config["moment"])
    h = named_reduction(config["h"], mf.dim)
    cmp_cfg = config.get("compare", {})
    mc = _given(cmp_cfg, "mc_draws", "slack")
    seed = derived_seed(plan_cfg["seed"], 2)
    if "against_learner" in cmp_cfg:
        res = compare_mod.compare_two_learners(
            mf, plan, d, builtin(config["learner"]), builtin(cmp_cfg["against_learner"]),
            seed=seed, h=h, alpha=config["alpha"], **mc,
        )
        results = {
            "theta_a": res.theta_a.tolist(),
            "theta_b": res.theta_b.tolist(),
            "deltas_ab": res.delta_ab.deltas.tolist(),
            "deltas_ba": res.delta_ba.deltas.tolist(),
            "test_ab": {"T": res.test_ab.statistic, "critical_value": res.test_ab.critical_value,
                        "reject": res.test_ab.reject},
            "test_ba": {"T": res.test_ba.statistic, "critical_value": res.test_ba.critical_value,
                        "reject": res.test_ba.reject},
        }
        return {"results": results, "plan": plan}
    learner = builtin(config["learner"])
    ev = cross_fit(plan, d, learner, seed=derived_seed(plan_cfg["seed"], 1))
    baseline_learner = builtin(cmp_cfg.get("baseline", "mean"))
    try:
        baseline = baseline_learner.train(d, learner_seed(baseline_learner, plan_cfg["seed"], 3))
    except Exception as exc:  # noqa: BLE001
        raise SplitInferError(f"baseline learner {baseline_learner.name!r} failed on the "
                              f"whole sample: {exc}") from exc
    res = compare_mod.compare_models(mf, ev, baseline, h=h, alpha=config["alpha"], seed=seed,
                                     **mc)
    emit_sigma = config.get("output", {}).get("emit_sigma", False)
    return {"results": res.to_jsonable(emit_sigma=emit_sigma), "plan": plan}


def run_gates(config: dict) -> dict:
    d = build_dataset(config)
    plan_cfg = config["plan"]
    gates_cfg = config.get("gates", {})
    cfg = _gates_config(config)
    for i, name in enumerate(cfg.controls):
        if name not in ("const", "propensity"):
            _resolved(f"/gates/controls/{i}", d.column, name)
    # each repetition draws a K-fold plan and an L-fold calibration plan
    _resolved("/plan/K", check_plan, 1, cfg.K, n=d.n)
    _resolved("/gates/L", check_plan, 1, cfg.L, n=d.n)
    result, het = gates_mod.run_gates(
        cfg, d, seed=plan_cfg["seed"], run_het=gates_cfg.get("het_test", False),
        **_given(gates_cfg, "mc_draws"),
    )
    results = {"gates": result.to_jsonable()}
    if het is not None:
        results["het_test"] = het.to_jsonable()
    if gates_cfg.get("baselines"):
        results["baselines"] = gates_mod.baselines(cfg, d, seed=derived_seed(plan_cfg["seed"], 4))
    return {"results": results, "plan": None}


def run_repro(config: dict) -> dict:
    d = build_dataset(config)
    plan_cfg = config["plan"]
    plan = _resolved("/plan", generate_plan, d.n, plan_cfg["M"], plan_cfg["K"], plan_cfg["b"],
                     plan_cfg["seed"])
    mf = builtin_moment(config["moment"])
    h = named_reduction(config["h"], mf.dim)
    learner = builtin(config["learner"])
    ev = cross_fit(plan, d, learner, seed=derived_seed(plan_cfg["seed"], 1))
    est = solve(2, mf, ev)
    from . import repro as repro_mod
    rep_cfg = config.get("repro", {})
    comps = repro_mod.sigma_D_hat(ev, est, h, **_given(rep_cfg, "tau"))
    measure = repro_mod.repro_measure(comps, rep_cfg.get("beta", 0.2),
                                      **_given(rep_cfg, "test_type"))
    return {
        "results": {"components": comps.to_jsonable(), "measure": measure.to_jsonable()},
        "plan": plan,
    }


def run_simulate(config: dict) -> dict:
    from . import sim
    sim_cfg = config["simulate"]
    csv_path = sim_cfg.get("csv_path") or (config.get("output", {}).get("path", "grid") + ".csv")
    grid = sim.ExperimentGrid(
        dgp=sim_cfg.get("dgp", {}),
        n_list=tuple(sim_cfg["n_list"]),
        K_list=tuple(sim_cfg["K_list"]),
        M=config["plan"]["M"],
        methods=tuple(sim_cfg["methods"]),
        iterations=sim_cfg["iterations"],
        seed=config["plan"]["seed"],
        out_csv=csv_path,
        learner=config["learner"],
        moment=config["moment"],
        alpha=config["alpha"],
        **({"oracle_rows": sim_cfg["oracle_rows"]} if "oracle_rows" in sim_cfg else {}),
    )
    try:
        rows = sim.run_grid(grid)
    except OSError as exc:
        pointer = "/simulate/csv_path" if sim_cfg.get("csv_path") else "/output/path"
        raise ConfigInvalid(pointer, f"cannot write the grid CSV: {exc}") from None
    return {
        "results": {"csv_path": csv_path, "rows_written": len(rows),
                    "summary": sim.summarize_grid(rows)},
        "plan": None,
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch

RUNNERS = {
    "estimate": run_estimate,
    "compare": run_compare,
    "gates": run_gates,
    "repro": run_repro,
    "simulate": run_simulate,
}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on a config error; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splitinfer", description="Split-sample inference toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*RUNNERS, "validate-config"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override plan seed")
        p.add_argument("--threads", type=int, default=1, choices=(1,),
                       help="accepted for existing command lines; every run fits its "
                            "splits one after another, so 1 is the only value")
        p.add_argument("--out", default=None, help="report path override")
        p.add_argument("--emit-plan", action="store_true", dest="emit_plan")
        p.add_argument("--emit-sigma", action="store_true", dest="emit_sigma")
        p.add_argument("--adaptive", action="store_true",
                       help="also compute the adaptive CI (estimate only)")
    return parser


def run(argv) -> int:
    args = make_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        validate_config(config)
        if args.command not in ("validate-config", config["method"]):
            raise ConfigInvalid("/method", f"{config['method']!r} does not match the "
                                           f"subcommand {args.command!r}")
        resolved = resolve_config(config, args)
        if args.command == "validate-config":
            print("config ok")
            return 0
        outcome = RUNNERS[args.command](resolved)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SplitInferError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2

    payload = {
        "schema_version": SCHEMA_VERSION,
        "method": args.command,
        "config": resolved,
        "master_seed": resolved["plan"]["seed"],
        "results": outcome["results"],
    }
    if resolved.get("output", {}).get("emit_plan") and outcome.get("plan") is not None:
        payload["plan"] = outcome["plan"].to_jsonable()
    out_path = resolved.get("output", {}).get("path", f"{args.command}_report.json")
    try:
        write_report(out_path, payload)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    print(out_path)
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
