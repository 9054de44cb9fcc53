"""Span tracing of the ``splitinfer`` package from outside it.

:meth:`Tracer.install` wraps the functions named in ``TARGETS`` in every
package module that binds them (``cli`` imports ``solve`` by name, ``gates``
imports ``sigma_from_values``, ...), ``Learner.train`` (span
``learners.fit``) and ``predict`` on every ``Model`` subclass (span
``learners.predict``). Each call records a span: name, start, end and the
span that was open when it began. Spans stay in memory; :meth:`summary`
turns them into self times and counts. A target that no longer exists is
listed as absent. Nothing under ``src/`` is changed.

The traced run is single-threaded (``--threads 1``), so one stack of open
spans gives every span its parent.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

PACKAGE = "splitinfer"

TARGETS = {
    "cli": ("validate_config",),
    "data": ("ingest_csv",),
    "splits": ("generate_plan",),
    "learners": ("train_all",),
    "zestim": ("solve", "per_split_estimates"),
    "inference": ("normal_ci", "jacobian_hat", "meat_hat"),
    "adaptive": ("adaptive_ci",),
    "compare": ("sigma_from_values", "mc_critical_value", "sigma_hat", "delta_vector",
                "sigma_delta_hat"),
    "gates": ("ensemble_predict", "gates_estimate", "het_test", "baselines", "wls_fit"),
    "report": ("write_report",),
}
ROOT = "cli.run"
FIT = "learners.fit"
PREDICT = "learners.predict"
PEAK = "compare.sigma_from_values"

SPAN_NAMES = (ROOT, FIT, PREDICT,
              *(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns))


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name total self time and call count.

    ``spans`` holds ``(name, start, end, parent)`` with ``parent`` the index
    of the enclosing span or -1. A span's self time is its duration minus
    the part of its interval that its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
        calls[name] = calls.get(name, 0) + 1
    return totals, calls


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.predict_rows = 0
        self.plan_splits = 0
        self.peak_mb = 0.0
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        if name == PREDICT:
            def wrapper(model, x, *args, **kwargs):
                self.predict_rows += len(x)
                return self.call(name, fn, model, x, *args, **kwargs)
        elif name == "splits.generate_plan":
            def wrapper(*args, **kwargs):
                plan = self.call(name, fn, *args, **kwargs)
                self.plan_splits += plan.n_splits
                return plan
        elif name == PEAK:
            def wrapper(*args, **kwargs):
                if tracemalloc.is_tracing():
                    return self.call(name, fn, *args, **kwargs)
                tracemalloc.start()
                try:
                    return self.call(name, fn, *args, **kwargs)
                finally:
                    self.peak_mb = max(self.peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self, package: str = PACKAGE) -> None:
        """Patch the imported package; call after ``import splitinfer.cli``."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"{package}.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name, None)
                if original is None:
                    self.absent.append(f"{layer}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

        learners = sys.modules.get(f"{package}.learners")
        learner_cls = getattr(learners, "Learner", None)
        if learner_cls is None or "train" not in vars(learner_cls):
            self.absent.append(FIT)
        else:
            learner_cls.train = self._wrap(FIT, learner_cls.train)
        model_cls = getattr(learners, "Model", None)
        subclasses = _all_subclasses(model_cls) if model_cls is not None else []
        for cls in subclasses:
            if "predict" in vars(cls):
                cls.predict = self._wrap(PREDICT, cls.predict)
        if not subclasses:
            self.absent.append(PREDICT)

    def summary(self) -> dict:
        """Self time and calls per span name, predict rows and splits, the
        ``sigma_from_values`` tracemalloc peak, and the absent targets."""
        totals, calls = self_times(self.spans)
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}_s"] = totals.get(name, 0.0)
            metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics["learners.predict.rows"] = self.predict_rows
        metrics["splits.n_splits"] = self.plan_splits
        metrics["learners.predicts_per_split"] = (
            calls.get(PREDICT, 0) / self.plan_splits if self.plan_splits else 0.0)
        metrics[f"{PEAK}.peak_mb"] = self.peak_mb
        return {"metrics": metrics, "absent": list(self.absent)}


def _all_subclasses(cls) -> list[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in out:
            out.append(sub)
            todo.extend(sub.__subclasses__())
    return out
