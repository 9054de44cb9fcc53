import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import shim
import workloads

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("a", 6.5, 7.0, 0),
        ("root", 20.0, 30.0, -1),
        ("b", 21.0, 24.0, 5),   # two children that overlap cover their union, 21-25
        ("b", 23.0, 25.0, 5),
        ("b", 29.0, 31.0, 5),   # a child running past its parent counts up to 30
    ]
    totals, calls = shim.self_times(spans)
    assert totals["leaf"] == pytest.approx(1.0)
    assert totals["a"] == pytest.approx((3.0 - 1.0) + 0.5)
    assert totals["b"] == pytest.approx(1.0 + 3.0 + 2.0 + 2.0)
    assert totals["root"] == pytest.approx((10.0 - 3.0 - 1.0 - 0.5) + (10.0 - 4.0 - 1.0))
    assert calls == {"root": 2, "a": 2, "leaf": 1, "b": 4}


def test_install_patches_every_binding_and_lists_absent_targets(monkeypatch):
    calls = []

    def validate_config(config):
        calls.append(config)

    class Model:
        def predict(self, x):
            raise NotImplementedError

    class Twice(Model):
        def predict(self, x):
            return [2 * v for v in x]

    class Learner:
        def train(self, d, seed=0):
            return Twice()

    pkg = "fakepkg"
    cli = types.ModuleType(f"{pkg}.cli")
    cli.validate_config = validate_config
    other = types.ModuleType(f"{pkg}.other")
    other.check = validate_config          # bound under another name
    learners = types.ModuleType(f"{pkg}.learners")
    learners.Model, learners.Learner = Model, Learner
    for module in (cli, other, learners):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    tracer = shim.Tracer()
    tracer.install(pkg)
    cli.validate_config({"a": 1})
    other.check({"b": 2})
    model = Learner().train(None)
    assert model.predict([1, 2, 3]) == [2, 4, 6]

    summary = tracer.summary()
    metrics = summary["metrics"]
    assert calls == [{"a": 1}, {"b": 2}]
    assert metrics["cli.validate_config.calls"] == 2
    assert metrics["learners.fit.calls"] == 1
    assert metrics["learners.predict.calls"] == 1
    assert metrics["learners.predict.rows"] == 3
    assert metrics["learners.train_all.calls"] == 0
    assert "cli.validate_config" not in summary["absent"]
    assert {"zestim.solve", "gates.wls_fit", "learners.train_all"} <= set(summary["absent"])


def test_traced_tiny_adaptive_estimate_counts_five_predicts_per_split(tmp_path):
    # n=60, M=2, K=3: 6 splits. Per split, by hand: solve (variant 2, average
    # moment) predicts once for theta and once for its residual; normal_ci
    # predicts once for the meat (the mse Jacobian is the constant -1) and
    # runs twice, for the estimate and inside the adaptive CI; the adaptive
    # CI's pooled moment predicts once. 2 + 2 + 1 = 5 per split, 30 in all.
    csv_path = tmp_path / "input.csv"
    workloads.write_csv(str(csv_path), workloads.base_table(60, seed=3))
    config = workloads.WORKLOADS["estimate_knn"].config(
        str(csv_path), str(tmp_path / "report.json"), seed=3)
    config["plan"].update(M=2, K=3)
    workloads.write_config(str(tmp_path / "config.json"), config)
    timing = tmp_path / "timing.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "entry.py"), str(timing), "1",
         "estimate", "--config", str(tmp_path / "config.json"), "--threads", "1", "--adaptive"],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, capture_output=True, text=True,
        timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    with open(timing, encoding="utf-8") as fh:
        trace = json.load(fh)["trace"]
    metrics = trace["metrics"]
    assert trace["absent"] == []
    assert metrics["splits.n_splits"] == 6
    assert metrics["learners.fit.calls"] == 6
    assert metrics["learners.predict.calls"] == 30
    assert metrics["learners.predicts_per_split"] == 5
    assert metrics["inference.normal_ci.calls"] == 2
    assert metrics["zestim.solve.calls"] == 1
    assert metrics["compare.sigma_from_values.calls"] == 0
    assert metrics["cli.run.calls"] == 1
