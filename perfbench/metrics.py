"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root lists the same names and units;
``test_perfbench.py`` keeps the two in step.  Each workload reports every
metric: layers a workload does not reach read 0 in the per-layer set, and
the end-to-end set is defined on all three workloads (see README.md).
"""

from __future__ import annotations

#: Metrics a user of the system sees, measured with tracing off.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "overall_s.total": "s",
    "overall_s.p50": "s",
    "overall_s.tail": "s",
    "req_per_s": "1/s",
    "decided_frac": "ratio",
    "cnf_clauses.total": "count",
    "peak_rss_mb": "MB",
}

SYNTHESIS_OPS = ("balance", "rewrite", "refactor", "resub")

#: Metrics of single layers, from the traced run.
PER_LAYER: dict[str, str] = {
    "aig.read_aiger_s": "s",
    "aig.ands_in": "count",
    "aig.sweep_s": "s",
    **{f"synthesis.{op}_s": "s" for op in SYNTHESIS_OPS},
    **{f"synthesis.{op}.calls": "count" for op in SYNTHESIS_OPS},
    **{f"synthesis.{op}.ands_removed": "count" for op in SYNTHESIS_OPS},
    "synthesis.ands_out": "count",
    "mapping.map_aig_s": "s",
    "mapping.luts": "count",
    "mapping.cost": "count",
    "cnf.lut2cnf_s": "s",
    "cnf.tseitin_s": "s",
    "cnf.vars": "count",
    "cnf.clauses": "count",
    "sat.solve_s": "s",
    "sat.decisions": "count",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "sat.props_per_s": "1/s",
    "core.residual_s": "s",
    "server.fresh_ms.p50": "ms",
    "server.cached_ms.p50": "ms",
    "server.execute_ms.p50": "ms",
    "server.wait_ms.p50": "ms",
    "server.accepted": "count",
    "server.dedup_hits": "count",
    "server.shed": "count",
    "server.worker_retries": "count",
    "runner.store.hit_frac": "ratio",
    "obs.trace_overhead": "ratio",
    "obs.untraced_s": "s",
    "obs.traced_s": "s",
}


def layer_metrics(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0 where ``values`` does not name it."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
