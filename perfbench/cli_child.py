"""Traced stand-in for `python -m specreg.cli`, used by cli-cold's traced run.

    python3 perfbench/cli_child.py SUMMARY.json <specreg cli arguments>

Times `import specreg.cli` and `cli.main(argv)` in this interpreter, traces the
calls into specreg's layers made by main, and writes the timings and the span
summary to SUMMARY.json once main has returned.  The report still goes to
stdout, exactly as the real CLI writes it.
"""

from __future__ import annotations

import json
import sys
import time

t_import = time.perf_counter()
import specreg.cli  # noqa: E402

import_ms = 1e3 * (time.perf_counter() - t_import)

from tracing import Tracer, cache_delta, coeff_cache_info  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    before = coeff_cache_info()
    t_main = time.perf_counter()
    code = specreg.cli.main(argv)
    main_ms = 1e3 * (time.perf_counter() - t_main)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["coeff_cache"] = cache_delta(before, coeff_cache_info())
    summary["import_ms"] = import_ms
    summary["main_ms"] = main_ms
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
