"""The unit of server work: a validated, fingerprinted job specification.

A :class:`JobSpec` is the JSON body of a submission, validated at the
admission edge (bad requests are rejected with HTTP 400 *before* they cost
a pool slot) and executed in a worker process by :func:`execute_job`.

Three kinds of work are served:

``solve``
    DIMACS CNF or ASCII AIGER payload → verdict.  AIGER payloads run one
    of the named preprocessing pipelines first (``baseline`` / ``comp`` /
    ``ours``); CNF payloads go straight to the backend and additionally
    return the satisfying model.  ``proof=true`` requests a DRAT proof of
    an UNSAT verdict (returned inline, together with the ``<proof>.cnf``
    sibling holding the CNF it refutes — matching ``repro solve --proof``
    semantics).
``preprocess``
    ASCII AIGER payload → preprocessed DIMACS text plus size counters.
``sweep``
    ASCII AIGER payload → SAT-swept AIGER text plus sweep counters.

Every spec has a deterministic content-hash :meth:`JobSpec.fingerprint`.
For plain AIGER solves it *is* the :class:`repro.runner.task.Task`
fingerprint (so the server's memo cache and the batch runner's JSONL cache
speak the same key language); other kinds hash their canonical JSON with a
kind discriminator.  The fingerprint keys cross-request dedup/memoization
and seeds the solver, so a job's verdict is independent of which worker
ran it and when.

Execution is the batch runner's: an AIGER solve, proof or not, *is*
:func:`repro.runner.batch.execute_task` on :meth:`JobSpec.to_task`, and
the other kinds run under the same guard,
:func:`repro.runner.batch.run_guarded` (wall-clock budget, memory
watchdog, chaos injection, ``TIMEOUT`` / ``MEMOUT`` / ``ERROR`` results).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

from repro.aig.aiger import read_aiger, write_aiger
from repro.aig.sweep import sweep_aig
from repro.cnf import read_dimacs, write_dimacs
from repro.core.pipeline import (PIPELINE_ALIASES, PIPELINES,
                                 canonical_pipeline, preprocess_aig)
from repro.errors import ReproError
from repro.runner.batch import execute_task, run_guarded
from repro.runner.task import SCHEMA_VERSION, Task
from repro.sat.backends import BACKEND_NAMES, resolve_backend
from repro.sat.configs import CONFIG_PRESETS

__all__ = [
    "BadRequest",
    "JobSpec",
    "JOB_KINDS",
    "execute_job",
]

JOB_KINDS = ("solve", "preprocess", "sweep")

#: Statuses whose results are cacheable: ERROR runs should be retried on
#: resubmission and resource trips may pass under a different budget.
UNCACHED_STATUSES = ("ERROR", "MEMOUT", "CANCELLED")


class BadRequest(ReproError):
    """A job spec failed validation (maps to HTTP 400)."""


def _pipeline_name(raw: str) -> str:
    name = canonical_pipeline(raw)
    if name is None:
        choices = sorted(PIPELINE_ALIASES) + sorted(PIPELINES)
        raise BadRequest(f"unknown pipeline {raw!r} (choices: {choices})")
    return name


def sniff_format(payload: str) -> str:
    """Guess ``"aig"`` or ``"cnf"`` from the payload's first token."""
    head = payload.lstrip()[:4]
    if head.startswith("aag ") or head.startswith("aig "):
        return "aig"
    return "cnf"


@dataclass
class JobSpec:
    """One validated server request; picklable and JSON-stable."""

    kind: str = "solve"
    payload: str = ""
    fmt: str = "cnf"
    name: str = ""
    pipeline: str = "Baseline"
    pipeline_kwargs: dict = field(default_factory=dict)
    backend: str = "internal"
    backend_kwargs: dict = field(default_factory=dict)
    config: str = "kissat_like"
    time_limit: float | None = None
    hard_timeout: float | None = None
    mem_limit_mb: float | None = None
    proof: bool = False

    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    _JSON_KEYS = ("kind", "payload", "fmt", "name", "pipeline",
                  "pipeline_kwargs", "backend", "backend_kwargs", "config",
                  "time_limit", "hard_timeout", "mem_limit_mb", "proof")

    @classmethod
    def from_json(cls, data: object) -> "JobSpec":
        """Validate a decoded JSON body into a spec, or raise
        :class:`BadRequest` with a client-actionable message."""
        if not isinstance(data, dict):
            raise BadRequest("job spec must be a JSON object")
        unknown = sorted(set(data) - set(cls._JSON_KEYS))
        if unknown:
            raise BadRequest(f"unknown job spec keys: {unknown}")
        kind = data.get("kind", "solve")
        if kind not in JOB_KINDS:
            raise BadRequest(f"unknown kind {kind!r} (choices: {JOB_KINDS})")
        payload = data.get("payload")
        if not isinstance(payload, str) or not payload.strip():
            raise BadRequest("payload must be a non-empty string "
                             "(DIMACS or ASCII AIGER text)")
        fmt = data.get("fmt") or sniff_format(payload)
        if fmt not in ("cnf", "aig"):
            raise BadRequest(f"unknown fmt {fmt!r} (choices: cnf, aig)")
        if kind in ("preprocess", "sweep") and fmt != "aig":
            raise BadRequest(f"kind {kind!r} requires an AIGER payload")
        proof = bool(data.get("proof", False))
        if proof and kind != "solve":
            raise BadRequest("proof=true is only valid for kind 'solve'")
        backend = data.get("backend", "internal")
        if backend not in BACKEND_NAMES:
            raise BadRequest(f"unknown backend {backend!r} "
                             f"(choices: {sorted(BACKEND_NAMES)})")
        config = data.get("config", "kissat_like")
        if config not in CONFIG_PRESETS:
            raise BadRequest(f"unknown config {config!r} "
                             f"(choices: {sorted(CONFIG_PRESETS)})")
        for key in ("pipeline_kwargs", "backend_kwargs"):
            if not isinstance(data.get(key, {}), dict):
                raise BadRequest(f"{key} must be a JSON object")
        limits: dict[str, float | None] = {}
        for key in ("time_limit", "hard_timeout", "mem_limit_mb"):
            value = data.get(key)
            if value is not None:
                if not isinstance(value, (int, float)) or value <= 0:
                    raise BadRequest(f"{key} must be a positive number")
                value = float(value)
            limits[key] = value
        return cls(
            kind=kind,
            payload=payload,
            fmt=fmt,
            name=str(data.get("name", "")),
            pipeline=_pipeline_name(str(data.get("pipeline", "Baseline"))),
            pipeline_kwargs=dict(data.get("pipeline_kwargs", {})),
            backend=backend,
            backend_kwargs=dict(data.get("backend_kwargs", {})),
            config=config,
            proof=proof,
            **limits,
        )

    def as_json(self) -> dict:
        """The plain-data form (inverse of :meth:`from_json`)."""
        data = asdict(self)
        data.pop("_fingerprint", None)
        return data

    def to_task(self, proof: str | None = None) -> Task:
        """The batch-runner task of an AIGER solve spec, proving to ``proof``."""
        if self.kind != "solve" or self.fmt != "aig":
            raise BadRequest("only AIGER solve specs map onto tasks")
        try:
            aig = read_aiger(self.payload)
        except ReproError as error:
            raise BadRequest(f"unparsable AIGER payload: {error}") from error
        return Task.from_aig(
            aig, self.pipeline,
            instance_name=self.name or aig.name or "job",
            pipeline_kwargs=self.pipeline_kwargs,
            config=CONFIG_PRESETS[self.config](),
            time_limit=self.time_limit,
            hard_timeout=self.hard_timeout,
            backend=self.backend,
            backend_kwargs=self.backend_kwargs,
            proof=proof,
        )

    def fingerprint(self) -> str:
        """Deterministic content hash keying dedup, memoization and seeding.

        AIGER solve specs reuse the :class:`Task` fingerprint (the batch
        runner's cache key for the *same computation*); other kinds hash
        their canonical JSON with a kind discriminator.  ``name`` labels
        the job but never the computation, and ``proof`` is excluded to
        match task semantics (the verdict is the same computation — the
        cache bypass for proof jobs is enforced at the service layer).
        """
        if self._fingerprint is None:
            if self.kind == "solve" and self.fmt == "aig":
                fingerprint = self.to_task().fingerprint()
            else:
                data = self.as_json()
                data.pop("name", None)
                data.pop("proof", None)
                data["schema"] = SCHEMA_VERSION
                blob = json.dumps(data, sort_keys=True).encode("utf-8")
                fingerprint = hashlib.sha256(blob).hexdigest()
            object.__setattr__(self, "_fingerprint", fingerprint)
        return self._fingerprint

    def seed(self) -> int:
        """Deterministic solver seed derived from the fingerprint."""
        return int(self.fingerprint()[:8], 16)


def _aborted(spec: JobSpec, status: str, elapsed: float,
             error: str | None = None) -> dict:
    result = {"kind": spec.kind, "status": status, "solve_time": elapsed}
    if error:
        result["error"] = error
    return result


def _run_payload(run) -> dict:
    """Result payload for an :class:`InstanceRun` (AIGER solve path)."""
    return {
        "kind": "solve",
        "status": run.status,
        "pipeline": run.pipeline_name,
        "num_vars": run.num_vars,
        "num_clauses": run.num_clauses,
        "transform_time": run.transform_time,
        "solve_time": run.solve_time,
        "stats": run.stats.as_dict(),
    }


def _run_spec(spec: JobSpec, proof: str | None) -> dict:
    """The happy path of a CNF solve, preprocess or sweep job (guarded)."""
    if spec.kind == "solve":
        cnf = read_dimacs(spec.payload, strict=False)
        config = replace(CONFIG_PRESETS[spec.config](), seed=spec.seed())
        backend = resolve_backend(spec.backend, **spec.backend_kwargs)
        result = backend.solve(cnf, config=config, time_limit=spec.time_limit,
                               proof=proof)
        if proof is not None and os.path.exists(proof):
            write_dimacs(cnf, proof + ".cnf")
        payload = {
            "kind": "solve",
            "status": result.status,
            "pipeline": None,
            "num_vars": cnf.num_vars,
            "num_clauses": cnf.num_clauses,
            "transform_time": 0.0,
            "solve_time": result.stats.solve_time,
            "stats": result.stats.as_dict(),
        }
        if result.model is not None:
            payload["model"] = {str(var): bool(value)
                                for var, value in result.model.items()}
        return payload
    if spec.kind == "preprocess":
        cnf, transform_time = preprocess_aig(
            read_aiger(spec.payload), spec.pipeline, spec.pipeline_kwargs,
            instance=spec.name)
        return {
            "kind": "preprocess",
            "status": "DONE",
            "pipeline": spec.pipeline,
            "num_vars": cnf.num_vars,
            "num_clauses": cnf.num_clauses,
            "transform_time": transform_time,
            "dimacs": write_dimacs(cnf),
        }
    if spec.kind == "sweep":
        aig = read_aiger(spec.payload)
        result = sweep_aig(aig, seed=(spec.seed() % 100000) or 1,
                           config=CONFIG_PRESETS[spec.config]())
        return {
            "kind": "sweep",
            "status": "DONE",
            "stats": result.stats.as_dict(),
            "aiger": write_aiger(result.aig),
        }
    raise BadRequest(f"unknown kind {spec.kind!r}")  # pragma: no cover


def _execute(spec: JobSpec, proof: str | None) -> dict:
    if spec.kind == "solve" and spec.fmt == "aig":
        try:
            task = spec.to_task(proof=proof)
        except ReproError as error:
            # Admission normally validates AIGER payloads; a worker must
            # still answer, not crash, if one slips through.
            return _aborted(spec, "ERROR", 0.0, error=str(error))
        return _run_payload(execute_task(task, spec.mem_limit_mb))
    return run_guarded(lambda: _run_spec(spec, proof), spec.name or spec.kind,
                       partial(_aborted, spec), hard_timeout=spec.hard_timeout,
                       mem_limit_mb=spec.mem_limit_mb)


def execute_job(payload: dict) -> dict:
    """Pool entry point: run one JSON job spec to a terminal result dict.

    Plain dicts travel over the pool pipe in both directions so worker
    processes need nothing but this module.  AIGER solves ride
    :func:`repro.runner.batch.execute_task` (identical results to the
    batch runner for the identical fingerprint, proof or not); everything
    else runs under the same guard, :func:`repro.runner.batch.run_guarded`.
    A proof job solves with a DRAT path in a scratch directory and returns
    the proof and its ``<proof>.cnf`` sibling inline.
    """
    spec = JobSpec.from_json(payload)
    with tempfile.TemporaryDirectory(prefix="repro-server-") \
            if spec.proof else nullcontext() as tmpdir:
        proof = os.path.join(tmpdir, "proof.drat") if spec.proof else None
        result = _execute(spec, proof)
        if proof is not None and os.path.exists(proof + ".cnf"):
            for key, path in (("proof", proof), ("proof_cnf", proof + ".cnf")):
                result[key] = Path(path).read_text(encoding="utf-8")
    return result
