"""Traced stand-in for `python -m diampart.cli`.

    python3 perfbench/cli_driver.py <diampart arguments>

Imports diampart in this fresh process, installs the tracer's wrappers,
calls ``diampart.cli.main(argv)`` and exits with its code.  The report
goes to stdout unchanged; the timings and counters go to stderr as the
last line, after ``PERFBENCH_STATS``.
"""

import json
import sys
import time

start = time.perf_counter()
import diampart.cli  # noqa: E402

IMPORT_S = time.perf_counter() - start

from tracer import STATS_PREFIX, Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    try:
        code = diampart.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(STATS_PREFIX + json.dumps({"import_s": IMPORT_S,
                                                 "trace": tracer.snapshot()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
