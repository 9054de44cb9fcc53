"""Benchmark of the ``splitinfer`` CLI pipeline; see README.md in this directory.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: this process runs one CLI child at a time
(``entry.py``) for ``--seconds`` seconds and at least ``MIN_CHILDREN`` times,
checks every report (``check.py``), and prints the end-to-end metrics of
``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics from traced
children (``--trace 1``, ``shim.py``). The last line of standard output is
one JSON object; a result file with the environment, the workload and every
child goes to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NoReturn

import check
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"
WORK = BENCH_DIR / ".work"
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# environment record


def _blas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "splitinfer").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in os.environ},
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# children


def spawn(argv: list[str], env: dict, log_path: Path) -> dict:
    """Run one child to completion; wall time from spawn to reaped exit,
    CPU and peak RSS from ``wait4``."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}


class Runner:
    """One benchmark run: set-up, then children in a closed loop."""

    def __init__(self, workload, seed: int, workdir: Path, reference: dict | None):
        self.w, self.seed, self.workdir, self.reference = workload, seed, workdir, reference
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        with open(SRC / "splitinfer" / "schemas" / "report.schema.json", encoding="utf-8") as fh:
            self.schema = json.load(fh)
        self.inputs = workload.generator(workload.n, seed)
        csv_path = workdir / "input.csv"
        workloads.write_csv(str(csv_path), self.inputs)
        self.report_path = workdir / "report.json"
        config_path = workdir / "config.json"
        workloads.write_config(str(config_path), workload.config(
            str(csv_path.relative_to(ROOT)), str(self.report_path.relative_to(ROOT)), seed))
        self.cli_argv = workload.argv(str(config_path.relative_to(ROOT)))

        self.expected_plan = None
        self.expected_theta = None
        self.setup_problems: list[str] = []
        if workload.name == "estimate_knn":
            self._independent_knn()

    def _independent_knn(self) -> None:
        """theta-hat recomputed with the benchmark's own k-NN on the plan the
        package draws; the stored reference must agree with it."""
        sys.path.insert(0, str(SRC))
        try:
            from splitinfer.splits import generate_plan
        finally:
            sys.path.remove(str(SRC))
        import numpy as np

        plan = generate_plan(self.w.n, self.w.M, self.w.K, None, self.seed)
        self.expected_plan = check.plan_digest(plan.to_jsonable())
        x = np.column_stack([self.inputs[c] for c in self.w.schema["covariates"]])
        k = int(self.w.learners[0][len("knn("):-1])
        self.expected_theta = workloads.knn_mse_theta(x, self.inputs["y"], plan.eval_sets(), k)
        if self.reference is not None:
            ref_theta = self.reference["results"]["estimate"]["theta_hat"][0]
            self.setup_problems += check.diff(ref_theta, self.expected_theta,
                                              "reference /results/estimate/theta_hat/0")
            if self.reference.get("plan_sha256") != self.expected_plan:
                self.setup_problems.append("reference plan differs from generate_plan")

    def warm_up(self) -> None:
        proc = subprocess.run([sys.executable, "-c", "import splitinfer.cli"], cwd=ROOT,
                              env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            fail(f"cannot import splitinfer.cli from {SRC}: {proc.stderr.decode()[-500:]}")

    def child(self, index: int, trace: bool) -> dict:
        """One CLI run: its measurements, its report's results and problems."""
        timing_path = self.workdir / f"timing_{index}.json"
        self.report_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "entry.py"), str(timing_path),
                "1" if trace else "0", *self.cli_argv]
        rec = spawn(argv, self.env, self.workdir / f"child_{index}.log")
        rec["trace"] = trace
        problems = []
        report = None
        if rec["exit_code"] != 0:
            log = (self.workdir / f"child_{index}.log").read_text(errors="replace")
            problems.append(f"exit code {rec['exit_code']}: {log[-400:]}")
        else:
            with open(timing_path, encoding="utf-8") as fh:
                timing = json.load(fh)
            if not Path(timing["package"]).resolve().is_relative_to(SRC):
                problems.append(f"ran the package at {timing['package']}, not {SRC}")
            rec.update(setup_s=timing["setup_s"], run_s=timing["run_s"])
            if trace:
                rec["layers"] = timing["trace"]["metrics"]
                rec["absent"] = timing["trace"]["absent"]
            try:
                with open(self.report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                problems.append(f"cannot read the report: {exc}")
            else:
                problems += check.check_report(report, self.schema, self.reference)
                if not problems:
                    problems += self._independent_problems(report)
        rec["problems"] = problems
        rec["results"] = report.get("results") if report is not None else None
        return rec

    def _independent_problems(self, report: dict) -> list[str]:
        if self.expected_theta is None:
            return []
        problems = []
        if "plan" not in report or check.plan_digest(report["plan"]) != self.expected_plan:
            problems.append("plan: differs from generate_plan at set-up")
        try:
            theta = report["results"]["estimate"]["theta_hat"][0]
        except (KeyError, IndexError, TypeError):
            return problems + ["independent theta_hat: no /results/estimate/theta_hat/0"]
        return problems + check.diff(theta, self.expected_theta, "independent theta_hat")


# ---------------------------------------------------------------------------
# metrics


def end_to_end(children: list[dict]) -> dict:
    """Medians over the children that passed every check or, if none did,
    over those that ran to the end."""
    pool = [c for c in children if not c["problems"]] or [c for c in children if "run_s" in c]
    if not pool:
        return {}
    return {name: statistics.median(c[name] for c in pool)
            for name in ("wall_s", "setup_s", "run_s", "cpu_s", "peak_rss_mb")}


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Medians over the pairs whose children both passed every check or, if
    none did, over those that both ran to the end."""
    pairs = ([(u, t) for u, t in pairs if not u["problems"] and not t["problems"]]
             or [(u, t) for u, t in pairs if "run_s" in u and "layers" in t])
    if not pairs:
        return {}
    metrics = {name: statistics.median(t["layers"][name] for _, t in pairs)
               for name in pairs[0][1]["layers"]}
    # the two children of a pair run back to back, so their difference
    # cancels most of the machine's drift
    metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    return metrics


def stored_reference(workload: str, seed: int) -> dict | None:
    path = REFS / f"{workload}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (SRC / "splitinfer" / "cli.py").is_file():
        fail(f"no package source at {SRC / 'splitinfer'}")
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = WORK / f"{workload.name}-{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = environment(args.seed)
        runner = Runner(workload, args.seed, workdir, stored_reference(workload.name, args.seed))
        runner.warm_up()
        children: list[dict] = []
        pairs: list[tuple[dict, dict]] = []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(children) < MIN_CHILDREN:
            if args.trace:
                untraced = runner.child(len(children), trace=False)
                traced = runner.child(len(children) + 1, trace=True)
                if untraced["results"] is not None and traced["results"] is not None:
                    traced["problems"] += check.diff(
                        traced["results"], untraced["results"], "traced vs untraced /results")
                pairs.append((untraced, traced))
                children += [untraced, traced]
            else:
                children.append(runner.child(len(children), trace=False))
        measured_s = time.perf_counter() - start
        computed = per_layer(pairs) if args.trace else end_to_end(children)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for c in children if c["problems"]) + bool(runner.setup_problems)
    attempted = len(children) + bool(runner.setup_problems)
    if not computed:
        fail("no child ran to the end: "
             + "; ".join(p for c in children for p in c["problems"][:2])[:2000])
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    absent = sorted({a for c in children for a in c.get("absent", ())})
    notes = [] if runner.reference is not None else [
        f"no stored reference for seed {args.seed}: schema and independent checks only"]

    result = {
        "workload": workload.name, "workload_params": workload.record(), "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured_s, "environment": env,
        "notes": notes, "setup_problems": runner.setup_problems, "absent": absent,
        "metrics": metrics,
        "children": [{k: v for k, v in c.items() if k != "results"} for c in children],
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{workload.name}-{args.seed}-t{args.trace}-{os.getpid()}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for note in notes:
        print(f"note: {note}")
    for problem in runner.setup_problems:
        print(f"setup check failed: {problem}")
    for i, c in enumerate(children):
        for problem in c["problems"][:5]:
            print(f"child {i} check failed: {problem}")
    if absent:
        print(f"absent (no such function in the package): {', '.join(absent)}")
    print(f"{workload.name} seed={args.seed} trace={args.trace} children={len(children)} "
          f"failed_frac={failed / attempted:.3f} result={result_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
