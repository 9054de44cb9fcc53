"""Make the stored reference reports in ``refs/`` from the current source.

Usage (from the repository root):

    python3 perfbench/make_refs.py --seeds 0-31 [--workload NAME ...]

Runs each workload once per seed through the same child as the benchmark and
keeps each report's ``results`` and plan digest. Remaking the references
declares the current results correct: do it only on purpose, and say why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import check
import run
import workloads


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()

    env = run.environment(None)
    for name in args.workload or list(workloads.WORKLOADS):
        seeds = {}
        for seed in args.seeds:
            workdir = run.WORK / f"refs-{name}-{seed}-{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                runner = run.Runner(workloads.WORKLOADS[name], seed, workdir, reference=None)
                runner.warm_up()
                child = runner.child(0, trace=False)
                if child["problems"] or runner.setup_problems:
                    raise SystemExit(f"{name} seed {seed}: {child['problems'] + runner.setup_problems}")
                with open(runner.report_path, encoding="utf-8") as fh:
                    seeds[str(seed)] = check.reference_entry(json.load(fh))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} seed {seed}: ok", flush=True)
        out = {"made_from": {"commit": env["commit"], "src_sha256": env["src_sha256"],
                             "blas_threads": env["blas_threads"]},
               "seeds": seeds}
        with open(run.REFS / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(out, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
