"""Command-line front end.

Subcommands: estimate, compare, gates, repro, simulate, validate-config. Every
run is driven by a JSON config (schema-validated, unknown keys rejected) plus
a handful of overriding flags; every report embeds the resolved config and the
master seed, is schema-versioned, and is written atomically. A key the config
leaves out keeps the library's default. Exit codes: 0 success; 1 usage or
config error, including an unknown flag or a flag value of the wrong type, an
unreadable ``data.path``, a negative ``--seed``, a thread count
(``--threads`` or ``SPLITINFER_THREADS``) that is not a positive integer, and
a report or grid CSV that cannot be written; 2 runtime failure, including a
CSV cell that is not a number or a CSV that is not UTF-8.

``validate-config`` runs the schema check and a run's name resolution
(``resolve_config``), so a bad name fails it at the same JSON pointer; the
checks that need the data (n against K, the CSV, control columns) stay with
the runs.

``h`` names the scalar reduction of theta that the CIs and tests are about:
"identity" (theta_0), "coordinate:j" (theta_j) or "diff:i-j"
(theta_i - theta_j, with i != j), every index below the moment's dimension.

Data come from a CSV (``data.path``) or from a synthetic generator
(``data.synthetic``: any kind of ``sim.dgp_sampler``, i.e. "base",
"linear_cate", "gauss_linear", "copula" or "hte", plus ``n`` and ``seed``;
default: 400 rows of "base" with seed 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from jsonschema import Draft202012Validator

from . import adaptive as adaptive_mod
from . import compare as compare_mod
from . import gates as gates_mod
from . import repro as repro_mod
from . import sim
from .data import Roles, ingest_csv
from .errors import ConfigInvalid, SplitInferError, ZeroVariance
from .evaluation import evaluate
from .inference import named_reduction, normal_ci
from .learners import builtin, train_all
from .moments import AverageMoment, builtin_moment
from .report import SCHEMA_VERSION, write_report
from .rng import derived_seed
from .splits import generate_plan
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


def validate_config(config: dict) -> None:
    validator = Draft202012Validator(load_schema("config.schema.json"))
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        raise ConfigInvalid(pointer, err.message)


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
    resolved["threads"] = _thread_count(args.threads)
    _resolve_names(resolved)
    return resolved


def _thread_count(flag: int | None) -> int:
    """``--threads``, else ``SPLITINFER_THREADS``, else 1."""
    raw = os.environ.get("SPLITINFER_THREADS", "1") if flag is None else flag
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigInvalid("/threads", f"the thread count must be a positive integer, "
                                        f"got {raw!r}")
    return threads


def _given(section: dict, *keys: str) -> dict:
    """The entries of ``section`` under ``keys`` that the config sets, to be
    forwarded as keyword arguments; a key left out keeps the library default."""
    return {key: section[key] for key in keys if key in section}


def _resolve_names(config: dict) -> None:
    """Resolve every moment, reduction, learner, grid method and data
    generator now, and check that an adaptive estimate has an average-type
    moment, so that a bad one is a config error with its JSON pointer, not a
    failure mid-run."""
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
    _resolved("/data/synthetic", sim.dgp_sampler,
              (config.get("data") or {}).get("synthetic", {}), "base")
    sim_cfg = config.get("simulate")
    if sim_cfg is not None:
        for i, method in enumerate(sim_cfg["methods"]):
            if method not in sim.METHOD_RUNNERS:
                raise ConfigInvalid(f"/simulate/methods/{i}", f"unknown grid method {method!r}")
        _resolved("/simulate/dgp", sim.dgp_sampler, sim_cfg.get("dgp", {}))


def _resolved(pointer: str, resolve, *args, **kwargs):
    try:
        return resolve(*args, **kwargs)
    except (SplitInferError, ValueError) as exc:
        raise ConfigInvalid(pointer, str(exc)) from None


def build_dataset(config: dict):
    data_cfg = config.get("data") or {}
    if "path" in data_cfg:
        try:
            return ingest_csv(data_cfg["path"], Roles.from_mapping(data_cfg["schema"]),
                              **_given(data_cfg, "missing_policy", "missing_values"))
        except OSError as exc:
            raise ConfigInvalid("/data/path", f"cannot read the CSV: {exc}") from None
    synth = data_cfg.get("synthetic", {})
    return sim.dgp_sampler(synth, "base")(int(synth.get("n", 400)), int(synth.get("seed", 0)))


# ---------------------------------------------------------------------------
# subcommand implementations


def run_estimate(config: dict) -> dict:
    d = build_dataset(config)
    plan_cfg = config["plan"]
    plan = _resolved("/plan", generate_plan, d.n, plan_cfg["M"], plan_cfg["K"], plan_cfg["b"],
                     plan_cfg["seed"])
    learner = builtin(config["learner"])
    mf = builtin_moment(config["moment"])
    models = train_all(plan, d, learner, seed=derived_seed(plan_cfg["seed"], 1),
                       threads=config.get("threads", 1))
    ev = evaluate(models, plan, d)
    est = solve(config["variant"], mf, ev)
    h = named_reduction(config["h"], mf.dim)
    results = {"estimate": est.to_jsonable()}
    est_cfg = config.get("estimate", {})
    try:
        results["inference"] = normal_ci(mf, ev, est, h, config["alpha"]).to_jsonable()
    except ZeroVariance:
        # the adaptive CI is built for a zero variance; without it, fail
        if not est_cfg.get("adaptive"):
            raise
    if est_cfg.get("adaptive"):
        cfg = adaptive_mod.AdaptiveConfig(alpha=config["alpha"],
                                          **_given(est_cfg, "c_gamma", "grid_points"))
        ci = adaptive_mod.adaptive_ci(mf, ev, est, cfg)
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
    models = train_all(plan, d, learner, seed=derived_seed(plan_cfg["seed"], 1),
                       threads=config.get("threads", 1))
    baseline = builtin(cmp_cfg.get("baseline", "mean")).train(d, derived_seed(plan_cfg["seed"], 3))
    res = compare_mod.compare_models(mf, evaluate(models, plan, d, baseline), h=h,
                                     alpha=config["alpha"], seed=seed, **mc)
    emit_sigma = config.get("output", {}).get("emit_sigma", False)
    return {"results": res.to_jsonable(emit_sigma=emit_sigma), "plan": plan}


def run_gates(config: dict) -> dict:
    d = build_dataset(config)
    plan_cfg = config["plan"]
    gates_cfg = config.get("gates", {})
    learner_names = config.get("learners") or [config["learner"]]
    learners = tuple(gates_mod.CateLearner(builtin(name)) for name in learner_names)
    cfg = _resolved("/plan/K", gates_mod.GatesConfig, learners=learners, M=plan_cfg["M"],
                    K=plan_cfg["K"], alpha=config["alpha"],
                    **_given(gates_cfg, "L", "J", "controls"))
    for i, name in enumerate(cfg.controls):
        if name not in ("const", "propensity"):
            _resolved(f"/gates/controls/{i}", d.column, name)
    # each repetition draws a K-fold plan and an L-fold calibration plan
    _resolved("/plan/K", generate_plan, d.n, 1, cfg.K)
    _resolved("/gates/L", generate_plan, d.n, 1, cfg.L)
    result, het, _ = gates_mod.run_gates(
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
    models = train_all(plan, d, learner, seed=derived_seed(plan_cfg["seed"], 1),
                       threads=config.get("threads", 1))
    ev = evaluate(models, plan, d)
    est = solve(2, mf, ev)
    rep_cfg = config.get("repro", {})
    comps = repro_mod.sigma_D_hat(mf, ev, est.theta_hat, h, **_given(rep_cfg, "tau"))
    measure = repro_mod.repro_measure(comps, rep_cfg.get("beta", 0.2),
                                      **_given(rep_cfg, "test_type"))
    return {
        "results": {"components": comps.to_jsonable(), "measure": measure.to_jsonable()},
        "plan": plan,
    }


def run_simulate(config: dict) -> dict:
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
        p.add_argument("--threads", type=int, default=None,
                       help="worker cap (default: SPLITINFER_THREADS or 1)")
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
