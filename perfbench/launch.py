"""Run the ``repro`` CLI from the checkout's sources, traced on request.

Usage: ``python perfbench/launch.py <repro arguments...>``.

Every CLI process and the daemon the benchmark starts goes through this
script, traced or not, so the two differ only by the wrappers.  With
``PERFBENCH_TRACE_DIR`` set, the layer wrappers of :mod:`spans` are
installed before ``repro.__main__.main`` runs, the launch-to-``main``
interval is recorded as ``cli.startup``, and the process's spans are
written to that directory when ``main`` returns.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv) -> int:
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not trace_dir:
        from repro.__main__ import main as repro_main

        return repro_main(argv)

    import spans

    rec = spans.Recorder(
        trace_dir,
        os.environ.get(spans.RUN_ID_ENV, "run"),
        argv[0] if argv and argv[0] == "serve" else "cli",
    )
    spans.install(rec)
    from repro.__main__ import main as repro_main

    launched = float(os.environ.get(spans.LAUNCHED_AT_ENV, time.monotonic()))
    rec.add_span("cli.startup", launched, time.monotonic())
    token = rec.begin("cli.main")
    try:
        return repro_main(argv)
    finally:
        rec.end(token)
        rec.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
