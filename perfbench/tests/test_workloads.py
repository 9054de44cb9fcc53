import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import shim
import workloads
from splitinfer.data import Dataset, Roles, ingest_csv
from splitinfer.learners import builtin

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    children = [{"wall_s": 1.0, "setup_s": 0.5, "run_s": 0.4, "cpu_s": 1.2,
                 "peak_rss_mb": 100.0, "problems": []}]
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.end_to_end(children))
    layers = shim.Tracer().summary()["metrics"]
    pairs = [({"wall_s": 1.0, "problems": []}, {"wall_s": 1.1, "layers": layers, "problems": []})]
    assert {m["name"] for m in spec["per_layer"]} <= set(run.per_layer(pairs))


def test_inputs_are_a_function_of_the_seed_and_round_trip_exactly(tmp_path):
    for w in workloads.WORKLOADS.values():
        a, b = w.generator(50, 7), w.generator(50, 7)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert not np.array_equal(a["y"], w.generator(50, 8)["y"])
        path = tmp_path / f"{w.name}.csv"
        workloads.write_csv(str(path), a)
        d = ingest_csv(str(path), Roles.from_mapping(w.schema))
        for name in Roles.from_mapping(w.schema).columns():
            assert d.column(name).tobytes() == a[name].tobytes()


def test_knn_reference_breaks_ties_by_lowest_index_and_matches_the_package():
    train_x = np.array([[0.0], [1.0], [-1.0], [1.0], [2.0]])
    train_y = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    # distances from 0: 0, 1, 1, 1, 4 -> the 3 nearest are rows 0, 1, 2
    assert workloads.knn_predict(train_x, train_y, np.array([[0.0]]), 3)[0] == 20.0

    cols = workloads.base_table(300, seed=1)
    x = np.column_stack([cols[f"x{i}"] for i in range(1, 9)])
    train = np.arange(300) % 3 != 0
    names = tuple(f"x{i}" for i in range(1, 9))
    d = Dataset({"y": cols["y"][train], **{c: cols[c][train] for c in names}}, Roles("y", names))
    model = builtin("knn(10)").train(d, seed=0)
    ours = workloads.knn_predict(x[train], cols["y"][train], x[~train], 10, chunk=7)
    assert np.array_equal(ours, model.predict(x[~train]))


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate_knn", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
