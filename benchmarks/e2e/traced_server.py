"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python benchmarks/e2e/traced_server.py SPANS_OUT start PATH [flags]

Everything after ``SPANS_OUT`` is handed to ``repro.service.cli.main``
unchanged.  The spans are written to ``SPANS_OUT`` when the server
returns (a ``shutdown`` op or SIGINT/SIGTERM); a killed server writes
nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path

from spans import SpanRecorder, install_server


def main(argv) -> int:
    spans_out = Path(argv[0])
    recorder = SpanRecorder()
    install_server(recorder)
    from repro.service import cli

    try:
        return cli.main(argv[1:])
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
