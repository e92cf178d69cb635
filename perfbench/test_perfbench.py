"""The benchmark's own checks: metric tables, determinism, output, exit codes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from common import SpanLog  # noqa: E402
from fig4 import run_fig4  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

#: Two cheap strata, one SAT and one UNSAT, so the check runs in seconds.
TINY = {"stuck_at:alu4": 1, "self_equivalence": 1}

#: Counts that must repeat exactly between two runs of one seed.
DETERMINISTIC = ("sat.decisions", "cnf.clauses", "mapping.luts",
                 *(f"synthesis.{op}.ands_removed"
                   for op in ("balance", "rewrite", "refactor", "resub")))


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_two_runs_of_one_seed_give_identical_counts(capsys):
    first_layers, first = run_fig4("Ours", 7, 0, SpanLog(), strata=TINY)
    second_layers, second = run_fig4("Ours", 7, 0, SpanLog(), strata=TINY)
    first_e2e, _ = run_fig4("Ours", 7, 0, strata=TINY)
    second_e2e, _ = run_fig4("Ours", 7, 0, strata=TINY)
    assert first.failed == second.failed == 0
    assert first.attempted == second.attempted == len(TINY)
    for name in DETERMINISTIC:
        assert first_layers[name] == second_layers[name], name
    assert first_layers["sat.decisions"] > 0
    assert first_layers["mapping.luts"] > 0
    assert first_e2e["cnf_clauses.total"] == second_e2e["cnf_clauses.total"]
    assert first_e2e["cnf_clauses.total"] == first_layers["cnf.clauses"]
    rows = capsys.readouterr().out
    assert "stuck_at:alu4 Ours SAT" in rows
    assert "ratio of totals" in rows and "geometric mean" in rows


def test_every_end_to_end_metric_is_printed_with_its_unit(capsys):
    assert run.main(["--workload", "fig4_baseline", "--seed", "3",
                     "--seconds", "0.5", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name


def test_serve_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "serve_mixed", "--seed", "2",
                     "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 400
    assert set(result["metrics"]) == set(PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["server.accepted"] > 0 and values["server.dedup_hits"] > 0
    assert values["server.shed"] == 0
    assert 0 < values["runner.store.hit_frac"] <= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4_ours",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
