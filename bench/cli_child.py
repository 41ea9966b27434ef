"""Run one ``graphgp`` command the way the console script does.

``python3 bench/cli_child.py <graphgp arguments>`` imports
``graphgp.cli`` and calls ``main(argv)``. When ``BENCH_TRACE_FILE`` is set,
the per-layer wrappers are installed first and the process's span summary
is written to that file at exit, its spans beside it.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    trace_file = os.environ.get("BENCH_TRACE_FILE")
    start = time.perf_counter()
    import graphgp.cli

    if not trace_file:
        return graphgp.cli.main(sys.argv[1:])
    import tracing

    tracer = tracing.Tracer()
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    code = graphgp.cli.main(sys.argv[1:])
    trace_file = Path(trace_file)
    trace_file.write_text(json.dumps(tracer.summary()))
    tracer.write_spans(trace_file.with_name("spans-" + trace_file.name))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
