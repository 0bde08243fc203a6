"""Runs ``sdgames <args>`` the way the console script does, optionally traced.

    python3 perfbench/cli_child.py [--trace SPANS.json] reduce DIR --json --out OUT

With ``--trace``, the spans of the run are kept in memory and written to
SPANS.json after the command returns.  The time from the parent's spawn
(``PERFBENCH_SPAWN_T``, a ``time.perf_counter`` reading of the parent, which
shares the system-wide monotonic clock) to this script's first line becomes
the ``process.startup`` span.
"""

import time

T_FIRST = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    if spans_path is None:
        from sdgames.cli import main as cli_main

        return cli_main(argv)

    import spans

    tracer = spans.Tracer()
    thread = threading.get_ident()
    spawn_t = float(os.environ["PERFBENCH_SPAWN_T"])
    tracer.add(spans.Span("process.startup", thread, spawn_t, T_FIRST))
    t0 = time.perf_counter()
    import sdgames.cli as cli

    tracer.add(spans.Span("cli.import", thread, t0, time.perf_counter()))
    spans.install(tracer)
    tracer.wrap(cli, "main", "cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(spans.dump(tracer.spans), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
