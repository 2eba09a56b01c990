#!/usr/bin/env python3
"""Start ``repro-serve`` with the layer wrappers installed.

    python3 perfbench/serve_traced.py SPANS.json STREAM_DIR [repro-serve options]

Used by the traced ``service-progressive`` run only: it installs the
same wrappers as the in-process runs, calls
``repro.service.server.main`` with the remaining arguments, and on exit
(SIGINT) writes every recorded span to ``SPANS.json``, so server-side
``core``/``io`` spans are measured without editing the server.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.service import server

    from perfbench.layers import TARGETS
    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        return server.main(argv)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps([
            [s.name, s.tid, s.t0, s.t1, s.depth, list(s.counts)] for s in tracer.spans
        ]))


if __name__ == "__main__":
    sys.exit(main())
