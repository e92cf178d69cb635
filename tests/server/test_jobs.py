"""Job specs: validation, fingerprinting, and worker-side execution."""

import pytest

from repro.aig.aiger import write_aiger
from repro.benchgen import adder_equivalence_miter, random_aig, random_cnf
from repro.benchgen.lec import multiplier_commutativity_miter
from repro.cnf import read_dimacs, write_dimacs
from repro.resilience.chaos import ChaosSpec, use_chaos
from repro.runner.task import Task
from repro.sat.configs import CONFIG_PRESETS
from repro.sat.proof import check_drat, parse_drat
from repro.server.jobs import (BadRequest, JobSpec, execute_job,
                               sniff_format)


def _cnf_payload(num_vars=12, num_clauses=40, seed=3):
    return write_dimacs(random_cnf(num_vars, num_clauses, seed))


def _aig_payload(seed=1):
    return write_aiger(random_aig(num_pis=4, num_nodes=14, seed=seed))


def _with_dangling_and(payload):
    """``payload`` plus one AND gate that drives nothing."""
    lines = payload.splitlines()
    _, max_var, inputs, latches, outputs, ands = lines[0].split()
    max_var, ands = int(max_var) + 1, int(ands) + 1
    lines[0] = f"aag {max_var} {inputs} {latches} {outputs} {ands}"
    lines.insert(int(inputs) + int(latches) + int(outputs) + ands,
                 f"{2 * max_var} 2 4")
    return "\n".join(lines) + "\n"


UNSAT_CNF = "p cnf 1 2\n1 0\n-1 0\n"


class TestFromJson:
    def test_minimal_cnf_solve(self):
        spec = JobSpec.from_json({"payload": _cnf_payload()})
        assert spec.kind == "solve"
        assert spec.fmt == "cnf"

    def test_format_sniffing(self):
        assert sniff_format(_aig_payload()) == "aig"
        assert sniff_format(_cnf_payload()) == "cnf"
        spec = JobSpec.from_json({"payload": _aig_payload()})
        assert spec.fmt == "aig"

    def test_pipeline_aliases(self):
        for raw, canonical in (("baseline", "Baseline"), ("comp", "Comp."),
                               ("ours", "Ours"), ("Ours", "Ours")):
            spec = JobSpec.from_json({"payload": _aig_payload(),
                                      "pipeline": raw})
            assert spec.pipeline == canonical

    @pytest.mark.parametrize("bad", [
        "not a dict",
        {},                                              # missing payload
        {"payload": "   "},                              # blank payload
        {"payload": "p cnf 1 1\n1 0\n", "kind": "nope"},
        {"payload": "p cnf 1 1\n1 0\n", "fmt": "blif"},
        {"payload": "p cnf 1 1\n1 0\n", "bogus_key": 1},
        {"payload": "p cnf 1 1\n1 0\n", "pipeline": "magic"},
        {"payload": "p cnf 1 1\n1 0\n", "backend": "nope"},
        {"payload": "p cnf 1 1\n1 0\n", "config": "nope"},
        {"payload": "p cnf 1 1\n1 0\n", "time_limit": -3},
        {"payload": "p cnf 1 1\n1 0\n", "time_limit": "fast"},
        {"payload": "p cnf 1 1\n1 0\n", "kind": "preprocess"},  # cnf payload
        {"payload": "p cnf 1 1\n1 0\n", "kind": "sweep"},
        {"payload": "aag 0 0 0 0 0\n", "kind": "preprocess",
         "proof": True},                                 # proof w/o solve
        {"payload": "p cnf 1 1\n1 0\n", "pipeline_kwargs": [1, 2]},
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(BadRequest):
            JobSpec.from_json(bad)

    def test_round_trips_through_json(self):
        spec = JobSpec.from_json({"payload": _aig_payload(),
                                  "pipeline": "ours", "config": "default",
                                  "time_limit": 5})
        again = JobSpec.from_json(spec.as_json())
        assert again == spec


class TestFingerprint:
    def test_name_and_proof_do_not_change_the_key(self):
        base = {"payload": UNSAT_CNF}
        fp = JobSpec.from_json(base).fingerprint()
        named = JobSpec.from_json({**base, "name": "other"})
        proved = JobSpec.from_json({**base, "proof": True})
        assert named.fingerprint() == fp
        assert proved.fingerprint() == fp

    def test_limits_and_payload_do_change_the_key(self):
        base = {"payload": _cnf_payload(seed=3)}
        fp = JobSpec.from_json(base).fingerprint()
        assert JobSpec.from_json(
            {**base, "time_limit": 5}).fingerprint() != fp
        assert JobSpec.from_json(
            {"payload": _cnf_payload(seed=4)}).fingerprint() != fp

    def test_aig_solve_matches_batch_task_fingerprint(self):
        """The server cache and the batch-runner cache share keys."""
        from repro.aig.aiger import read_aiger
        payload = write_aiger(adder_equivalence_miter(3, mutated=True,
                                                      seed=2))
        spec = JobSpec.from_json({"payload": payload, "kind": "solve",
                                  "pipeline": "ours", "name": "miter"})
        # What a batch runner building a task from the same AIGER file
        # would compute (serialisation normalises, so parse first).
        task = Task.from_aig(read_aiger(payload), "Ours",
                             instance_name="miter",
                             config=spec_config(spec))
        assert spec.fingerprint() == task.fingerprint()

    def test_seed_is_deterministic(self):
        spec = JobSpec.from_json({"payload": UNSAT_CNF})
        assert spec.seed() == int(spec.fingerprint()[:8], 16)


def spec_config(spec):
    return CONFIG_PRESETS[spec.config]()


class TestExecuteJob:
    def test_cnf_sat_returns_model(self):
        result = execute_job({"payload": "p cnf 2 2\n1 2 0\n-1 0\n"})
        assert result["status"] == "SAT"
        model = result["model"]
        assert model["2"] is True and model["1"] is False

    def test_cnf_unsat(self):
        result = execute_job({"payload": UNSAT_CNF})
        assert result["status"] == "UNSAT"
        assert "model" not in result

    def test_aig_solve_rides_execute_task(self):
        aig = adder_equivalence_miter(3, mutated=False, seed=1)
        result = execute_job({"payload": write_aiger(aig),
                              "pipeline": "ours", "name": "eq"})
        assert result["kind"] == "solve"
        assert result["status"] == "UNSAT"  # faithful mutation-free miter
        assert result["num_vars"] > 0

    def test_proof_solve_returns_drat_and_cnf(self):
        result = execute_job({"payload": UNSAT_CNF, "proof": True})
        assert result["status"] == "UNSAT"
        assert result["proof"].strip().endswith("0")
        assert result["proof_cnf"].startswith("p cnf")

    def test_aig_proof_solve_is_the_plain_solve(self):
        """A proof job shares its fingerprint (and cache cell) with the
        plain job, so it must solve the same normalised CNF — not the raw
        payload with its dangling gate — and its proof must refute the
        CNF it returns."""
        payload = _with_dangling_and(
            write_aiger(multiplier_commutativity_miter(3)))
        spec = {"payload": payload, "pipeline": "baseline"}
        plain = execute_job(spec)
        proved = execute_job({**spec, "proof": True})
        assert plain["status"] == proved["status"] == "UNSAT"
        for key in ("num_vars", "num_clauses"):
            assert proved[key] == plain[key]
        assert proved["stats"]["decisions"] == plain["stats"]["decisions"]
        outcome = check_drat(read_dimacs(proved["proof_cnf"]),
                             parse_drat(proved["proof"]))
        assert outcome.valid, outcome.reason

    def test_preprocess_returns_dimacs(self):
        result = execute_job({"payload": _aig_payload(seed=7),
                              "kind": "preprocess", "pipeline": "ours"})
        assert result["status"] == "DONE"
        assert result["dimacs"].startswith("p cnf")
        assert result["num_clauses"] > 0

    def test_sweep_returns_aiger(self):
        result = execute_job({"payload": _aig_payload(seed=9),
                              "kind": "sweep"})
        assert result["status"] == "DONE"
        assert result["aiger"].startswith("aag ")
        assert result["stats"]["nodes_before"] >= result["stats"]["nodes_after"]

    def test_garbage_aiger_yields_error_not_crash(self):
        result = execute_job({"payload": "aag 1 2 3\nnot aiger at all",
                              "kind": "solve", "fmt": "aig"})
        assert result["status"] == "ERROR"
        assert "error" in result

    def test_chaos_fail_task_maps_to_error(self):
        with use_chaos(ChaosSpec(fail_task="boom")):
            result = execute_job({"payload": UNSAT_CNF, "name": "boom"})
        assert result["status"] == "ERROR"

    def test_chaos_oom_task_maps_to_memout(self):
        with use_chaos(ChaosSpec(oom_task="piggy")):
            result = execute_job({"payload": UNSAT_CNF, "name": "piggy"})
        assert result["status"] == "MEMOUT"

    def test_hard_timeout_maps_to_timeout(self):
        # A budget far below interpreter startup cost trips immediately.
        payload = write_dimacs(random_cnf(60, 260, 11))
        result = execute_job({"payload": payload, "hard_timeout": 1e-4})
        assert result["status"] in ("TIMEOUT", "SAT", "UNSAT")
