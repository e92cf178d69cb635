"""The Fig. 4 workloads: one seeded draw through the Ours or Baseline pipeline.

The untraced passes time exactly what a user of the library runs:
``read_aiger`` on the instance's AIGER text, then ``run_pipeline`` with the
program's defaults, the ``kissat_like`` preset and a fixed conflict limit.
The traced pass drives the same stages one public call at a time
(``read_aiger``, ``apply_operation`` per recipe op, ``map_aig``,
``lut_netlist_to_cnf`` / ``tseitin_encode``, ``resolve_backend(None).solve``)
and must reproduce the untraced CNF size, decisions and verdict exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.aig.aiger import read_aiger, write_aiger
from repro.aig.simulate import evaluate
from repro.benchgen import adder_equivalence_miter, generate_test_suite
from repro.cnf.lut2cnf import lut_netlist_to_cnf
from repro.cnf.tseitin import tseitin_encode
from repro.core.pipeline import run_pipeline
from repro.core.preprocess import Preprocessor
from repro.mapping.cost import branching_cost
from repro.mapping.mapper import map_aig
from repro.sat.backends import InternalBackend, resolve_backend
from repro.sat.configs import kissat_like
from repro.synthesis.recipe import apply_operation

from common import (KERNEL_NOMINAL_S, Outcome, SpanLog, Speedometer, median,
                    peak_rss_mb, tail)
from metrics import SYNTHESIS_OPS, layer_metrics

#: Instances drawn per stratum of ``generate_test_suite`` (hard scale).  The
#: multiplier-commutativity miter is the same circuit on every seed and
#: carries most of the work; three adder-equivalence miters put the median
#: instance on a stable family; the mutated adder (SAT), a stuck-at fault
#: on the ALU (SAT) and a self-equivalence miter (trivial UNSAT) cover the
#: other verdict paths.  Stuck-at faults on the multiplier and the adder
#: are left out: their cost swings 2x and their decision counts 20x with
#: the fault site, which would make the per-seed totals unsteady.
STRATA: dict[str, int] = {
    "mult_commutativity": 1,
    "adder_equivalence": 3,
    "adder_mutated": 1,
    "stuck_at:alu4": 1,
    "self_equivalence": 1,
}

#: Fixed per-instance solve limit.  A conflict count, not seconds, so the
#: verdicts and counters of a seed repeat exactly on any machine.
MAX_CONFLICTS = 50_000

#: Pool drawn from, doubled in the rare case a stratum is left unfilled;
#: large enough that the set-up time hardly depends on the seed.
POOL_SIZE = 128

#: How often the inputs are built to time the set-up.
SETUP_REPEATS = 3

DECIDED = ("SAT", "UNSAT")


@dataclass(frozen=True)
class Item:
    """One drawn instance, kept as the AIGER text a user would load."""

    name: str
    family: str
    expected: str
    text: str


@dataclass
class Run:
    """One instance through one pipeline: verdict, counters and times."""

    status: str
    decisions: int
    num_vars: int
    num_clauses: int
    seconds: float
    read_s: float = 0.0
    transform_s: float = 0.0
    solve_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    marks: tuple[int, int] = (0, 0)   # Speedometer samples taken meanwhile

    def signature(self) -> tuple:
        return (self.status, self.decisions, self.num_vars, self.num_clauses)


def _stratum(instance) -> str:
    family = instance.metadata["family"]
    if family == "stuck_at":
        return f"{family}:{instance.metadata['base']}"
    return family


def draw(seed: int, strata: dict[str, int] = STRATA) -> list[Item]:
    """The first instances of each stratum in ``generate_test_suite(seed)``."""
    size = POOL_SIZE
    while True:
        picked: dict[str, list] = {name: [] for name in strata}
        for instance in generate_test_suite(size, seed=seed):
            bucket = picked.get(_stratum(instance))
            if bucket is not None and len(bucket) < strata[_stratum(instance)]:
                bucket.append(instance)
        if all(len(picked[name]) == count for name, count in strata.items()):
            return [Item(inst.name, name, inst.expected, write_aiger(inst.aig))
                    for name in strata for inst in picked[name]]
        size *= 2


class _RecordingBackend(InternalBackend):
    """The default solver, keeping the last CNF and result for the oracle."""

    last = None

    def solve(self, cnf, **kwargs):
        result = super().solve(cnf, **kwargs)
        self.last = (cnf, result)
        return result


def _replay_problems(item: Item, model: dict[int, bool],
                     pi_vars: list[int]) -> list[str]:
    """Replay a SAT model on the *input* circuit; its output must be 1."""
    aig = read_aiger(item.text, name=item.name)
    outputs = evaluate(aig, [bool(model.get(var, False)) for var in pi_vars])
    return [] if any(outputs) else ["SAT model does not set the output"]


def _verdict_problems(item: Item, status: str) -> list[str]:
    if status == "ERROR":
        return ["ERROR status"]
    if item.expected == "unsat" and status == "SAT" \
            or item.expected == "sat" and status == "UNSAT":
        return [f"{status} contradicts the known answer {item.expected}"]
    return []


def run_untraced(item: Item, pipeline: str,
                 meter: Speedometer | None = None) -> Run:
    """``read_aiger`` + ``run_pipeline``, timed as a user would see them."""
    backend = _RecordingBackend()
    first_mark = meter.mark() if meter else 0
    start = time.perf_counter()
    aig = read_aiger(item.text, name=item.name)
    read_s = time.perf_counter() - start
    ands_before = aig.num_ands
    start = time.perf_counter()
    run = run_pipeline(aig, pipeline, config=kissat_like(),
                       max_conflicts=MAX_CONFLICTS, backend=backend)
    pipeline_s = time.perf_counter() - start
    marks = (first_mark, meter.mark() if meter else 0)
    problems = _verdict_problems(item, run.status)
    if aig.num_ands != ands_before:
        problems.append(f"input AIG grew from {ands_before} to "
                        f"{aig.num_ands} ANDs")
    if run.status == "SAT":
        cnf, result = backend.last
        # Both encoders number the primary inputs first, in PI order.
        pi_vars = list(cnf.var_map.values())[:aig.num_pis]
        problems += _replay_problems(item, result.model, pi_vars)
    return Run(run.status, run.decisions, run.num_vars, run.num_clauses,
               read_s + pipeline_s, read_s, run.transform_time,
               run.solve_time, problems, marks)


def run_traced(item: Item, pipeline: str, spans: SpanLog,
               recipe: list[str], lut_size: int) -> Run:
    """The same stages, one public call per span."""
    root = spans.open("instance", item.name, pipeline=pipeline,
                      family=item.family)
    index = spans.open("read_aiger", item.name, root)
    aig = read_aiger(item.text, name=item.name)
    spans.close(index, ands=aig.num_ands)
    if pipeline == "Ours":
        current = aig
        for op in recipe:
            before = current.num_ands
            index = spans.open("apply_operation", item.name, root, op=op)
            current = apply_operation(current, op)
            spans.close(index, removed=before - current.num_ands,
                        ands=current.num_ands)
        index = spans.open("map_aig", item.name, root)
        mapping = map_aig(current, k=lut_size, cost_fn=branching_cost)
        spans.close(index, luts=mapping.netlist.num_luts,
                    cost=mapping.total_cost)
        index = spans.open("lut_netlist_to_cnf", item.name, root)
        cnf = lut_netlist_to_cnf(mapping.netlist)
        pi_keys = mapping.netlist.pis
    else:
        index = spans.open("tseitin_encode", item.name, root)
        cnf = tseitin_encode(aig)
        pi_keys = aig.pis
    spans.close(index, vars=cnf.num_vars, clauses=cnf.num_clauses)
    index = spans.open("solve", item.name, root)
    result = resolve_backend(None).solve(cnf, config=kissat_like(),
                                         max_conflicts=MAX_CONFLICTS)
    stats = result.stats
    spans.close(index, decisions=stats.decisions, conflicts=stats.conflicts,
                propagations=stats.propagations)
    span = spans.close(root, status=result.status)
    problems = _verdict_problems(item, result.status)
    if result.status == "SAT":
        problems += _replay_problems(
            item, result.model, [cnf.var_map[key] for key in pi_keys])
    return Run(result.status, stats.decisions, cnf.num_vars,
               cnf.num_clauses, span.seconds, problems=problems)


def program_defaults() -> tuple[list[str], int]:
    """The default recipe and LUT size of the Ours pipeline, as the
    program reports them."""
    preprocessor = Preprocessor()
    result = preprocessor.preprocess(adder_equivalence_miter(4))
    return list(result.recipe), preprocessor.lut_size


def _timed_setup(seed: int, strata: dict[str, int],
                 meter: Speedometer) -> tuple[list[Item], float]:
    """Build the draw ``SETUP_REPEATS`` times; returns it and the median
    build time at the nominal machine speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        first_mark = meter.mark()
        start = time.perf_counter()
        items = draw(seed, strata)
        times.append((time.perf_counter() - start)
                     / meter.slowdown(first_mark, meter.mark()))
    return items, median(times)


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_fig4(pipeline: str, seed: int, seconds: float,
             spans: SpanLog | None = None,
             strata: dict[str, int] = STRATA) -> tuple[dict, Outcome]:
    """Run one Fig. 4 workload; returns (metrics, correctness outcome).

    Without ``spans`` the times are divided by the machine slowdown the
    :class:`Speedometer` saw while each was taken.  With ``spans`` each
    round adds a traced pass recorded there, the metrics are the per-layer
    ones and every time is raw.
    """
    with Speedometer() as meter:
        items, setup_s = _timed_setup(seed, strata, meter)
        untraced, traced, traced_totals, rounds, reference = _measure(
            items, pipeline, seconds, spans, meter)
    print(f"# draw seed={seed}: " + ", ".join(
        f"{name} x{count}" for name, count in strata.items()))

    def seconds_of(run: Run) -> float:
        if spans is not None:
            return run.seconds
        return run.seconds / meter.slowdown(*run.marks)

    outcome = Outcome()
    per_instance = {}
    for item in items:
        runs = untraced[item.name]
        first = runs[0]
        problems = list(first.problems)
        if any(run.signature() != first.signature() for run in runs):
            problems.append("verdict or counters differ between passes")
        if item.name in traced:
            problems += traced[item.name].problems
            if traced[item.name].signature() != first.signature():
                problems.append(
                    f"traced run {traced[item.name].signature()} differs "
                    f"from untraced {first.signature()}")
        base = reference.get(item.name)
        if base is not None:
            problems += base.problems
            if base.status in DECIDED and first.status in DECIDED \
                    and base.status != first.status:
                problems.append(f"Baseline says {base.status}")
        for _ in runs:
            outcome.verdict(f"{item.name}/{pipeline}", problems)
        per_instance[item.name] = median(seconds_of(run) for run in runs)

    _print_rows(items, pipeline, untraced, per_instance, spans or SpanLog(),
                rounds)
    total = sum(per_instance.values())
    if reference:
        base_total = sum(seconds_of(run) for run in reference.values())
        ratios = [per_instance[name] / seconds_of(reference[name])
                  for name in per_instance]
        print(f"# Ours/Baseline overall runtime: ratio of totals "
              f"{total / base_total:.3f} (Ours {total:.3f} s over Baseline "
              f"{base_total:.3f} s); geometric mean of per-instance ratios "
              f"{_geomean(ratios):.3f} (base: Baseline time of each instance)")

    if spans is not None:
        return _layer_metrics(spans, per_instance, traced_totals,
                              rounds), outcome

    firsts = [runs[0] for runs in untraced.values()]
    times = list(per_instance.values())
    tail_value, tail_label = tail(times)
    raw_total = sum(median(run.seconds for run in runs)
                    for runs in untraced.values())
    print(f"# {rounds} pass(es); overall_s.tail is {tail_label} "
          f"per-instance medians; decisions.total "
          f"{sum(r.decisions for r in firsts)}")
    print(f"# machine slowdown {meter.slowdown():.4f} (harmonic mean of "
          f"{len(meter.samples)} kernel samples over its nominal "
          f"{KERNEL_NOMINAL_S} s); raw overall_s.total {raw_total:.4f} s")
    metrics = {
        "setup_s": setup_s,
        "overall_s.total": total,
        "overall_s.p50": median(times),
        "overall_s.tail": tail_value,
        "req_per_s": len(items) / total,
        "decided_frac": sum(r.status in DECIDED for r in firsts) / len(firsts),
        "cnf_clauses.total": sum(r.num_clauses for r in firsts),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, outcome


def _measure(items: list[Item], pipeline: str, seconds: float,
             spans: SpanLog | None, meter: Speedometer):
    """Untraced (and, with ``spans``, traced) passes over the draw until
    ``seconds`` are up; then, for Ours, one Baseline pass as reference."""
    recipe, lut_size = program_defaults()
    print(f"# {pipeline}: {len(items)} instances; default recipe {recipe}, "
          f"lut_size {lut_size}")
    untraced: dict[str, list[Run]] = {item.name: [] for item in items}
    traced: dict[str, Run] = {}
    traced_totals: list[float] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for item in items:
            untraced[item.name].append(run_untraced(item, pipeline, meter))
        if spans is not None:
            first = len(spans.spans)
            for item in items:
                traced[item.name] = run_traced(item, pipeline, spans,
                                               recipe, lut_size)
            traced_totals.append(sum(s.seconds for s in spans.spans[first:]
                                     if s.name == "instance"))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    reference: dict[str, Run] = {}
    if pipeline == "Ours":
        # The same draw through Baseline: the verdicts must agree, and its
        # times are the base of the Ours/Baseline ratios.
        reference = {item.name: run_untraced(item, "Baseline", meter)
                     for item in items}
    return untraced, traced, traced_totals, rounds, reference


def _layer_metrics(spans: SpanLog, per_instance: dict[str, float],
                   traced_totals: list[float], rounds: int) -> dict:
    """Per-layer sums over the draw, from the spans of the traced passes
    (divided by the number of traced passes, so they are per pass)."""
    def each(name, key=None, **match):
        chosen = spans.select(name, **match)
        if key is None:
            return sum(s.seconds for s in chosen) / rounds
        return sum(s.attrs.get(key, 0) for s in chosen) / rounds

    values = {
        "aig.read_aiger_s": each("read_aiger"),
        "aig.ands_in": each("read_aiger", "ands"),
        "mapping.map_aig_s": each("map_aig"),
        "mapping.luts": each("map_aig", "luts"),
        "mapping.cost": each("map_aig", "cost"),
        "cnf.lut2cnf_s": each("lut_netlist_to_cnf"),
        "cnf.tseitin_s": each("tseitin_encode"),
        "cnf.vars": each("lut_netlist_to_cnf", "vars")
        + each("tseitin_encode", "vars"),
        "cnf.clauses": each("lut_netlist_to_cnf", "clauses")
        + each("tseitin_encode", "clauses"),
        "sat.solve_s": each("solve"),
        "sat.decisions": each("solve", "decisions"),
        "sat.conflicts": each("solve", "conflicts"),
        "sat.propagations": each("solve", "propagations"),
    }
    for op in SYNTHESIS_OPS:
        values[f"synthesis.{op}_s"] = each("apply_operation", op=op)
        values[f"synthesis.{op}.calls"] = len(
            spans.select("apply_operation", op=op)) / rounds
        values[f"synthesis.{op}.ands_removed"] = each(
            "apply_operation", "removed", op=op)
    values["synthesis.ands_out"] = _ands_out(spans) / rounds
    if values["sat.solve_s"] > 0:
        values["sat.props_per_s"] = values["sat.propagations"] \
            / values["sat.solve_s"]
    layers = sum(values[name] for name in (
        "aig.read_aiger_s", "mapping.map_aig_s", "cnf.lut2cnf_s",
        "cnf.tseitin_s", "sat.solve_s",
        *(f"synthesis.{op}_s" for op in SYNTHESIS_OPS)))
    untraced_s = sum(per_instance.values())
    traced_s = median(traced_totals)
    values["core.residual_s"] = untraced_s - layers
    values["obs.untraced_s"] = untraced_s
    values["obs.traced_s"] = traced_s
    values["obs.trace_overhead"] = traced_s / untraced_s
    print(f"# tracing overhead {traced_s / untraced_s:.4f} = traced "
          f"{traced_s:.4f} s / untraced {untraced_s:.4f} s per pass")
    return layer_metrics(values)


def _ands_out(spans: SpanLog) -> int:
    """ANDs after each instance's last recipe op."""
    last: dict[int, int] = {}
    for span in spans.spans:
        if span.name == "apply_operation":
            last[span.parent] = span.attrs["ands"]
    return sum(last.values())


def _print_rows(items: list[Item], pipeline: str,
                untraced: dict[str, list[Run]],
                per_instance: dict[str, float], spans: SpanLog,
                rounds: int) -> None:
    """One row per instance: family, verdict, overall time, layer split
    (per traced pass)."""
    split: dict[str, dict[str, float]] = {}
    for span in spans.spans:
        if span.parent is not None:
            key = span.attrs.get("op", span.name)
            row = split.setdefault(span.instance, {})
            row[key] = row.get(key, 0.0) + span.seconds / rounds
    print("# instance family pipeline verdict overall_s read_s transform_s "
          "solve_s decisions clauses [traced layer split, s]; overall_s is "
          "at nominal machine speed unless traced, the rest raw")
    for item in items:
        runs = untraced[item.name]
        first = runs[0]
        layers = " ".join(f"{k}={v:.4f}"
                          for k, v in split.get(item.name, {}).items())
        print(f"{item.name} {item.family} {pipeline} {first.status} "
              f"{per_instance[item.name]:.4f} "
              f"{median(r.read_s for r in runs):.4f} "
              f"{median(r.transform_s for r in runs):.4f} "
              f"{median(r.solve_s for r in runs):.4f} "
              f"{first.decisions} {first.num_clauses} {layers}".rstrip())
