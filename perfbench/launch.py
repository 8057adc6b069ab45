"""Traced launcher: run one ``python -m repro`` command under the tracer.

    python perfbench/launch.py OUT_PREFIX serve --socket ... (repro CLI args)

Installs the layer wrappers of :mod:`layers`, runs
``repro.cli.main(args)`` in this process and, when the command returns
(``serve`` returns on SIGINT), writes ``OUT_PREFIX.summary.json`` (span
aggregates, counters, root spans) and ``OUT_PREFIX.trace.json`` (Chrome
trace-event JSON that Perfetto and chrome://tracing open).  Needs the
program's ``src`` directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Probe, install  # noqa: E402


def main(argv: list[str]) -> int:
    out_prefix, command = argv[0], argv[1:]
    probe = Probe()
    install(probe)
    from repro.cli import main as cli_main

    code = cli_main(command)
    with open(out_prefix + ".summary.json", "w", encoding="utf-8") as handle:
        json.dump(probe.summary(), handle)
    probe.tracer.write_chrome_trace(out_prefix + ".trace.json")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
