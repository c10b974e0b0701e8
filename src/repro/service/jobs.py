"""The async job service: searches as durable on-disk jobs.

A **job** is a search you can walk away from: submitted as a
self-contained record (system description + embedded program source +
options snapshot), executed by a ``repro serve`` worker loop, streaming
live :class:`~repro.verisoft.stats.SearchStats` heartbeats to disk,
checkpointing its frontier on a timer, and surviving stop requests and
process kills — resuming picks up the persisted
:class:`~repro.service.frontier.SearchCheckpoint` and completes the
search with a final report identical to an uninterrupted run.

Disk layout (one directory per job under the store root)::

    <root>/<job_id>/
        job.json       identity, state, system payload, options snapshot
        frontier.json  suspended/periodic SearchCheckpoint (absent when done)
        stats.json     latest streamed SearchStats heartbeat
        STOP           stop request marker (repro stop); removed on resume
        result.json    final summary + counters (done/failed jobs)
        run.json       run manifest (repro.obs), done jobs
        traces/        one replayable JSON trace per recorded violation

Job states: ``queued`` → ``running`` → ``done`` | ``stopped`` |
``failed``; ``stopped`` and ``failed`` jobs go back to ``queued`` via
:meth:`JobStore.resume`.  State transitions are plain atomic file
rewrites — the store is a directory, not a daemon, so ``repro jobs``
can inspect it while a server runs.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time
import uuid
from dataclasses import dataclass, field, fields
from typing import Callable

from ..counterex.traceio import _NULL, TraceFormatError, _check, _field
from ..sysdesc import description_language, system_from_description
from .frontier import SearchCheckpoint, load_frontier, save_frontier
from .scheduler import work_stealing_search

__all__ = ["Job", "JobFormatError", "JobStore", "run_job"]

#: The states a job moves through.
JOB_STATES = ("queued", "running", "stopped", "done", "failed")


class JobFormatError(ValueError):
    """A ``job.json`` is malformed.  The message names the file and the
    JSON path of the bad entry (``jobs/job-1/job.json: $.options:
    expected dict, got list``)."""


def _now() -> float:
    return time.time()


def job_options(options: dict) -> dict:
    """An options snapshot under the job policy: every job runs on the
    parallel driver's work-stealing lease policy."""
    return {**options, "strategy": "parallel", "scheduler": "steal"}


def _read_json(path: pathlib.Path):
    """The JSON document in ``path``; text that is not UTF-8 JSON raises
    :class:`JobFormatError` naming the file."""
    try:
        return json.loads(path.read_bytes().decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise JobFormatError(f"{path}: not valid JSON: {err}") from err


def _write_json(path: pathlib.Path, payload: dict) -> None:
    """Atomic write-then-rename, like the frontier format — readers
    (and crashes) never observe a half-written document."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    tmp.replace(path)


@dataclass
class Job:
    """One persisted job (the in-memory view of ``job.json``)."""

    id: str
    directory: pathlib.Path
    name: str = ""
    state: str = "queued"
    created: float = 0.0
    updated: float = 0.0
    #: Self-contained system payload:
    #: ``{"description": <dict>, "program_source": <text>}``.
    system: dict = field(default_factory=dict)
    #: :meth:`~repro.verisoft.search.SearchOptions.as_dict` snapshot.
    options: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def job_path(self) -> pathlib.Path:
        return self.directory / "job.json"

    @property
    def frontier_path(self) -> pathlib.Path:
        return self.directory / "frontier.json"

    @property
    def stats_path(self) -> pathlib.Path:
        return self.directory / "stats.json"

    @property
    def stop_path(self) -> pathlib.Path:
        return self.directory / "STOP"

    @property
    def result_path(self) -> pathlib.Path:
        return self.directory / "result.json"

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.directory / "run.json"

    @property
    def traces_dir(self) -> pathlib.Path:
        return self.directory / "traces"

    def save(self) -> None:
        self.updated = _now()
        _write_json(
            self.job_path,
            {
                "id": self.id,
                "name": self.name,
                "state": self.state,
                "created": self.created,
                "updated": self.updated,
                "system": self.system,
                "options": self.options,
                "error": self.error,
            },
        )

    @classmethod
    def load(cls, directory: pathlib.Path) -> "Job":
        """Read ``job.json``; a file that is not UTF-8 JSON of the
        right shape raises :class:`JobFormatError`."""
        path = directory / "job.json"
        doc = _read_json(path)
        try:
            _check(doc, (dict,), "$")
            state = _field(doc, "state", (str,), "$", "queued")
            if state not in JOB_STATES:
                raise TraceFormatError(f"$.state: unknown job state {state!r}")
            system = _field(doc, "system", (dict,), "$", {})
            _field(system, "description", (dict,), "$.system", None)
            _field(system, "program_source", (str, _NULL), "$.system", None)
            return cls(
                id=_field(doc, "id", (str,), "$"),
                directory=directory,
                name=_field(doc, "name", (str,), "$", ""),
                state=state,
                created=_field(doc, "created", (float, int), "$", 0.0),
                updated=_field(doc, "updated", (float, int), "$", 0.0),
                system=system,
                options=_field(doc, "options", (dict,), "$", {}),
                error=_field(doc, "error", (str, _NULL), "$", None),
            )
        except TraceFormatError as err:
            raise JobFormatError(f"{path}: {err}") from err

    def set_state(self, state: str, *, error: str | None = None) -> None:
        assert state in JOB_STATES, state
        self.state = state
        self.error = error
        self.save()

    def build_system(self):
        """Reconstruct the job's :class:`~repro.runtime.system.System`
        from the embedded payload (no external files needed)."""
        return system_from_description(
            self.system.get("description", {}),
            None,
            program_source=self.system.get("program_source"),
        )

    def search_options(self):
        """The job's :class:`~repro.verisoft.search.SearchOptions`, under
        the job policy (:func:`job_options`).  An option of the wrong
        JSON type or an invalid value raises :class:`JobFormatError`."""
        from ..verisoft.search import SearchOptions

        # Job files written before an option was retired still carry it,
        # and the callback fields are never serialized: both are ignored.
        kinds = _option_kinds()
        try:
            options = SearchOptions(
                **{
                    key: _check(value, kinds[key], f"$.options.{key}")
                    for key, value in job_options(self.options).items()
                    if key in kinds
                }
            )
        except TraceFormatError as err:
            raise JobFormatError(f"{self.job_path}: {err}") from err
        try:
            options.validate()
        except ValueError as err:
            raise JobFormatError(f"{self.job_path}: $.options: {err}") from err
        return options

    def latest_stats(self) -> dict | None:
        """The last streamed heartbeat (``None`` before the first).  A
        ``stats.json`` that is not UTF-8 JSON holding a ``stats`` object
        raises :class:`JobFormatError`."""
        path = self.stats_path
        try:
            doc = _read_json(path)
        except OSError:
            return None
        try:
            _check(doc, (dict,), "$")
            _field(doc, "stats", (dict,), "$")
        except TraceFormatError as err:
            raise JobFormatError(f"{path}: {err}") from err
        return doc

    def describe(self) -> str:
        line = f"{self.id}  {self.state:<8}"
        if self.name:
            line += f"  {self.name}"
        beat = self.latest_stats()
        if beat and "stats" in beat:
            stats = beat["stats"]
            line += (
                f"  paths={stats.get('paths_explored', 0)}"
                f" states={stats.get('states_visited', 0)}"
            )
        if self.error:
            line += f"  error: {self.error.splitlines()[0]}"
        return line


#: Annotation spelling of a serializable option type -> its JSON types.
_JSON_KINDS = {
    "int": (int,),
    "bool": (bool,),
    "str": (str,),
    "float": (float, int),
    "None": (_NULL,),
}


@functools.lru_cache(maxsize=None)
def _option_kinds() -> dict[str, tuple[type, ...]]:
    """Each serializable :class:`~repro.verisoft.search.SearchOptions`
    field -> the JSON types its value may have, read off the field's
    annotation (``int | None`` -> int or null)."""
    from ..verisoft.search import SearchOptions

    serialized = SearchOptions().as_dict()
    return {
        f.name: sum((_JSON_KINDS[part.strip()] for part in f.type.split("|")), ())
        for f in fields(SearchOptions)
        if f.name in serialized
    }


class JobStore:
    """An on-disk queue of jobs — a directory of job directories."""

    def __init__(self, root: str | pathlib.Path):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def submit(
        self,
        description: dict,
        options,
        *,
        program_source: str | None = None,
        base_dir: pathlib.Path | None = None,
        name: str = "",
    ) -> Job:
        """Create a queued job from a system description.

        The program source is embedded (read from ``base_dir`` /
        ``description["program"]`` unless passed directly), making the
        job self-contained: a server on another machine needs nothing
        but the store directory.  ``options`` is a
        :class:`~repro.verisoft.search.SearchOptions` (or a dict
        snapshot of one); ``job.json`` records it under the job policy
        (:func:`job_options`), as it will run."""
        if program_source is None:
            if base_dir is None:
                raise ValueError(
                    "submit needs program_source or base_dir to embed the program"
                )
            program_source = (
                pathlib.Path(base_dir) / description["program"]
            ).read_text()
        options_dict = job_options(options if isinstance(options, dict) else options.as_dict())
        job_id = f"job-{uuid.uuid4().hex[:12]}"
        directory = self.root / job_id
        directory.mkdir()
        job = Job(
            id=job_id,
            directory=directory,
            name=name or description.get("program", ""),
            state="queued",
            created=_now(),
            system={"description": description, "program_source": program_source},
            options=options_dict,
        )
        job.save()
        return job

    def get(self, job_id: str) -> Job:
        directory = self.root / job_id
        if not (directory / "job.json").exists():
            raise KeyError(f"no such job: {job_id}")
        return Job.load(directory)

    def jobs(
        self, on_malformed: Callable[[JobFormatError], None] | None = None
    ) -> list[Job]:
        """Every job in the store, oldest first.  A malformed
        ``job.json`` raises :class:`JobFormatError`; with
        ``on_malformed`` the error is passed to it instead and the job
        left out."""
        out = []
        for directory in sorted(self.root.iterdir()):
            if (directory / "job.json").exists():
                try:
                    out.append(Job.load(directory))
                except JobFormatError as err:
                    if on_malformed is None:
                        raise
                    on_malformed(err)
        out.sort(key=lambda job: (job.created, job.id))
        return out

    def claim_next(
        self, on_malformed: Callable[[JobFormatError], None] | None = None
    ) -> Job | None:
        """Atomically claim the oldest queued job (``None`` when idle).

        The claim is an ``O_EXCL`` marker file, so two server loops
        polling one store never run the same job.  A job whose
        ``job.json`` is malformed cannot be claimed: it is skipped, and
        its :class:`JobFormatError` passed to ``on_malformed``."""
        for job in self.jobs(on_malformed or (lambda err: None)):
            if job.state != "queued":
                continue
            claim = job.directory / ".claim"
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return job
        return None

    def request_stop(self, job_id: str) -> Job:
        """Ask a running job to suspend to its frontier checkpoint
        (honoured at the next path boundary; a no-op for finished
        jobs)."""
        job = self.get(job_id)
        job.stop_path.touch()
        return job

    def resume(self, job_id: str) -> Job:
        """Re-queue a stopped (or failed) job; its persisted frontier —
        if any — is picked up by the next server that claims it."""
        job = self.get(job_id)
        if job.state not in ("stopped", "failed"):
            raise ValueError(
                f"job {job_id} is {job.state}; only stopped/failed jobs resume"
            )
        if job.stop_path.exists():
            job.stop_path.unlink()
        claim = job.directory / ".claim"
        if claim.exists():
            claim.unlink()
        job.set_state("queued")
        return job


def store_snapshots(store: JobStore) -> list[dict]:
    """Job snapshots for the metrics exporter: id, name, state and the
    latest streamed stats heartbeat (``None`` before the first)."""
    snapshots = []
    for job in store.jobs():
        beat = job.latest_stats()
        snapshots.append(
            {
                "id": job.id,
                "name": job.name,
                "state": job.state,
                "stats": (beat or {}).get("stats"),
            }
        )
    return snapshots


def export_metrics(store: JobStore, metrics_out) -> None:
    """Refresh the Prometheus textfile; never sinks the run."""
    if metrics_out is None:
        return
    from ..obs import write_metrics

    try:
        write_metrics(store_snapshots(store), metrics_out)
    except (OSError, JobFormatError):
        pass


def run_job(
    store: JobStore,
    job: Job,
    *,
    checkpoint_interval: float = 5.0,
    stop_poll_interval: float = 0.2,
    kill_worker_after_paths: int | None = None,
    log: Callable[[str], None] | None = None,
    metrics_out=None,
) -> Job:
    """Execute one claimed job to completion or suspension.

    Drives :func:`~repro.service.scheduler.work_stealing_search` with
    the service hooks wired to the job directory: the STOP marker is
    the suspend signal (polled at most every ``stop_poll_interval``
    seconds), the frontier is checkpointed every
    ``checkpoint_interval`` seconds while running (and at suspension),
    and every progress tick streams a ``stats.json`` heartbeat.  On
    completion the job directory gains ``result.json``, a ``run.json``
    manifest and one replayable trace file per recorded violation.
    """
    from ..verisoft.stats import SearchStats

    def say(message: str) -> None:
        if log is not None:
            log(message)

    try:
        system = job.build_system()
        options = job.search_options()
    except Exception as err:
        job.set_state("failed", error=f"{type(err).__name__}: {err}")
        say(f"{job.id}: failed to build system: {err}")
        return job

    initial: SearchCheckpoint | None = None
    if job.frontier_path.exists():
        initial = load_frontier(job.frontier_path)
        say(f"{job.id}: resuming from frontier ({len(initial.pending)} pending leases)")

    # Stale STOP markers (e.g. the server died before honouring one)
    # must not instantly re-suspend the fresh run.
    if job.stop_path.exists():
        job.stop_path.unlink()

    last_poll = [0.0, False]

    def should_suspend() -> bool:
        now = time.monotonic()
        if now - last_poll[0] >= stop_poll_interval:
            last_poll[0] = now
            last_poll[1] = job.stop_path.exists()
        return last_poll[1]

    def heartbeat(stats: SearchStats) -> None:
        _write_json(
            job.stats_path,
            {"state": "running", "updated": _now(), "stats": stats.json_dict()},
        )
        export_metrics(store, metrics_out)

    def on_checkpoint(checkpoint: SearchCheckpoint) -> None:
        save_frontier(job.frontier_path, checkpoint)

    options.progress = heartbeat
    job.set_state("running")
    say(f"{job.id}: running")
    try:
        report = work_stealing_search(
            system,
            options,
            initial=initial,
            should_suspend=should_suspend,
            on_checkpoint=on_checkpoint,
            checkpoint_interval=checkpoint_interval,
            kill_worker_after_paths=kill_worker_after_paths,
        )
    except Exception as err:
        job.set_state("failed", error=f"{type(err).__name__}: {err}")
        say(f"{job.id}: failed: {err}")
        return job

    if report.stats is not None:
        _write_json(
            job.stats_path,
            {"state": "final", "updated": _now(), "stats": report.stats.json_dict()},
        )

    if report.checkpoint is not None:
        # Suspended: persist the frontier, acknowledge the stop.
        save_frontier(job.frontier_path, report.checkpoint)
        if job.stop_path.exists():
            job.stop_path.unlink()
        job.set_state("stopped")
        say(
            f"{job.id}: stopped ({len(report.checkpoint.pending)} pending leases "
            "checkpointed)"
        )
        return job

    # Completed: traces, result, manifest — the job directory is the
    # run's full artifact set.
    from ..counterex import save_report_traces
    from ..obs import build_manifest, write_manifest

    language = description_language(job.system.get("description", {}))
    artifacts = save_report_traces(
        job.traces_dir,
        report,
        system=system,
        system_payload=job.system,
        language=language,
    )
    source = None
    source_text = job.system.get("program_source")
    if source_text:
        source = {
            "path": job.system.get("description", {}).get("program"),
            "text": source_text,
        }
    _write_json(
        job.result_path,
        {
            "ok": report.ok,
            "summary": report.summary(),
            "distinct_states": report.distinct_states,
            "stats": report.stats.json_dict() if report.stats is not None else None,
            "groups": [
                {"kind": group.kind, "count": group.count}
                for group in report.triage()
            ],
            "worker_summary": report.worker_summary,
        },
    )
    manifest = build_manifest(
        argv=["repro", "serve", job.id],
        options=options,
        report=report,
        system=system,
        artifacts=[str(path) for path in artifacts],
        language=language,
        source=source,
        extra={"job": {"id": job.id, "name": job.name}},
    )
    write_manifest(job.manifest_path, manifest)
    if job.frontier_path.exists():
        job.frontier_path.unlink()
    job.set_state("done")
    say(f"{job.id}: done — {report.summary()}")
    return job


def serve(
    store: JobStore,
    *,
    once: bool = False,
    poll_interval: float = 1.0,
    log: Callable[[str], None] | None = None,
    max_jobs: int | None = None,
    metrics_out=None,
    on_malformed: Callable[[JobFormatError], None] | None = None,
) -> int:
    """The server loop: claim queued jobs and run them.

    ``once`` drains the queue and returns instead of polling forever;
    ``max_jobs`` caps the number of jobs executed (testing hook).
    ``metrics_out`` keeps a Prometheus textfile updated: rewritten on
    every heartbeat of the running job and at every state change (see
    :mod:`repro.obs.metrics`).  A job with a malformed ``job.json`` is
    skipped, at every claim, with its error passed to
    ``on_malformed``.  Returns the number of jobs run."""
    ran = 0
    export_metrics(store, metrics_out)
    while True:
        job = store.claim_next(on_malformed)
        if job is None:
            export_metrics(store, metrics_out)
            if once:
                return ran
            time.sleep(poll_interval)
            continue
        export_metrics(store, metrics_out)
        run_job(store, job, log=log, metrics_out=metrics_out)
        export_metrics(store, metrics_out)
        ran += 1
        if max_jobs is not None and ran >= max_jobs:
            return ran
