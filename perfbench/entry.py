"""Child process of the benchmark: one CLI run, timed from inside.

Usage: python entry.py TIMING_JSON TRACE CLI_ARGS...

Times ``import splitinfer.cli`` (setup_s) and ``cli.run(CLI_ARGS)`` (run_s),
with the package spans traced when TRACE is 1, writes them to TIMING_JSON
and exits with the CLI's exit code.
"""

import json
import sys
import time


def main() -> int:
    timing_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    from splitinfer import cli
    setup_s = time.perf_counter() - start

    record = {"setup_s": setup_s, "package": cli.__file__}
    if trace:
        import shim

        tracer = shim.Tracer()
        tracer.install()
        start = time.perf_counter()
        code = tracer.call(shim.ROOT, cli.run, argv)
        record["run_s"] = time.perf_counter() - start
        record["trace"] = tracer.summary()
    else:
        start = time.perf_counter()
        code = cli.run(argv)
        record["run_s"] = time.perf_counter() - start
    record["exit_code"] = code
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
