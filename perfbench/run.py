"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fig4_ours --seed 1 --seconds 25 --trace 0

Workloads: ``fig4_ours``, ``fig4_baseline`` (Fig. 4's overall runtime of one
seeded draw through the Ours / Baseline pipeline) and ``serve_mixed`` (the
solve server under a closed-loop mixed load).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs the traced pass as
well and reports the per-layer metrics.  The output is one row per instance
or chunk, one ``metric value unit`` line per metric, and as its last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when a verdict fails its check, 2 when the program under test
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for the server's result store, inside the checkout.
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("fig4_ours", "fig4_baseline", "serve_mixed")


def run(workload: str, seed: int, seconds: float, spans=None):
    """Run ``workload``; returns (metrics, outcome)."""
    if workload == "serve_mixed":
        from serve import run_serve

        return run_serve(seed, seconds, WORKDIR, spans)
    from fig4 import run_fig4

    pipeline = "Ours" if workload == "fig4_ours" else "Baseline"
    return run_fig4(pipeline, seed, seconds, spans)


def report(metrics: dict, outcome, trace: bool) -> dict:
    """Print every metric with its unit; return the result object."""
    from metrics import END_TO_END, PER_LAYER

    units = PER_LAYER if trace else END_TO_END
    print(f"# failed_frac {outcome.failed_frac:.4f} "
          f"({outcome.failed} of {outcome.attempted} verdicts)")
    for failure in outcome.failures[:20]:
        print(f"# FAILED {failure}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from common import SpanLog

    WORKDIR.mkdir(exist_ok=True)
    spans = SpanLog() if args.trace else None
    metrics, outcome = run(args.workload, args.seed, args.seconds, spans)
    if spans is not None:
        path = WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.write(path)
        print(f"# {len(spans.spans)} spans written to "
              f"{path.relative_to(ROOT)}")
    result = report(metrics, outcome, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
