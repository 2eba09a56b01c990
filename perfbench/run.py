#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload field-zlib --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each call is one fresh process running
one workload: inputs are generated from ``--seed`` (untimed), the
program is set up (timed as ``setup_s``), then measured for about
``--seconds``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` installs the layer wrappers and
reports the per-layer metrics instead.  The last stdout line is the
JSON result; a record with the host and input fingerprint goes to
``.perfbench-out/``.  ``--tiny`` shrinks every input for smoke tests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("field-zlib", "series-huffman", "service-progressive")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (smoke test); numbers are meaningless")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    import importlib

    from perfbench import common

    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    module = {"field-zlib": "field", "series-huffman": "series",
              "service-progressive": "service"}[args.workload]
    run = importlib.import_module(f"perfbench.{module}").run

    ctx = common.Context(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    try:
        res = run(ctx)
    finally:
        ctx.cleanup()

    metrics = res["metrics"]
    problems = list(res.get("problems", []))
    if args.trace:
        # layers a workload does not reach report zero
        not_reached = sorted(set(units) - set(metrics))
        metrics = {name: metrics.get(name, 0.0) for name in units}
        res["detail"]["not_reached"] = not_reached
    unknown = sorted(set(metrics) - set(units))
    missing = sorted(set(units) - set(metrics))
    if unknown or missing:
        print(f"perfbench: metric names disagree with BENCHMARK.json: "
              f"unknown={unknown} missing={missing}", file=sys.stderr)
        return 3

    record = {
        "fingerprint": common.fingerprint(ctx, res["inputs"]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "attempted": res["attempted"],
        "failed": res["failed"],
        "problems": problems,
        "detail": res["detail"],
    }
    path = common.write_record(ctx, record)
    for line in res.get("report", []):
        print(line)
    for problem in problems:
        print(f"problem: {problem}")
    print(f"record: {path.relative_to(ROOT)}")
    correct = res["failed"] == 0 and not problems
    print(common.result_line(correct, res["attempted"], res["failed"], metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
