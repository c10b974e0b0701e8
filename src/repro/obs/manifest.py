"""Structured run manifests: every exploration is reconstructable.

A saved trace answers "what went wrong"; the manifest answers "what ran
at all" — the exact options, the system fingerprint, the code version,
the host, the phase timings and the final telemetry, written as
``run.json`` next to whatever artifacts the run produced (saved traces,
Chrome trace exports).  Two runs whose manifests agree on
``options``/``fingerprint``/``git`` are replays of each other; two that
do not explain *why* their numbers differ.

Everything here degrades gracefully: no git checkout, no problem (the
``git`` block is ``None``); the manifest never fails a run.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import platform
import socket
import subprocess
import sys
from typing import Any

#: Schema version of the manifest file.
MANIFEST_VERSION = 1

#: Default file name, written next to run artifacts.
MANIFEST_NAME = "run.json"


def git_info(cwd: str | pathlib.Path | None = None) -> dict[str, str] | None:
    """``git describe`` + commit hash of the working tree (``None``
    when not in a git checkout, or git is unavailable)."""
    def run(*args: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", *args],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=5,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        return proc.stdout.strip()

    commit = run("rev-parse", "HEAD")
    if not commit:
        return None
    info: dict[str, str] = {"commit": commit}
    describe = run("describe", "--always", "--dirty")
    if describe:
        info["describe"] = describe
    return info


def host_info() -> dict[str, Any]:
    """A fingerprint of the machine the run executed on."""
    import os

    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def build_manifest(
    *,
    argv: list[str] | None = None,
    options: Any = None,
    report: Any = None,
    system: Any = None,
    phases: dict[str, float] | None = None,
    artifacts: list[str] | None = None,
    language: str | None = None,
    engine: str | None = None,
    source: dict[str, str] | None = None,
) -> dict[str, Any]:
    """Assemble the ``run.json`` dictionary.

    Arguments (all optional — the manifest records what it is given):

    * ``argv`` — the command line that launched the run;
    * ``options`` — a :class:`~repro.verisoft.search.SearchOptions`
      (serialized via its ``as_dict``);
    * ``report`` — the final
      :class:`~repro.verisoft.results.ExplorationReport` (summary line,
      stats, triage groups, profile and coverage when collected);
    * ``system`` — the explored :class:`~repro.runtime.System` (its
      structural fingerprint is recorded);
    * ``phases`` — phase-name → seconds (see
      :meth:`repro.obs.tracer.Tracer.phase_timings`);
    * ``artifacts`` — paths of files the run wrote (trace JSONs, saved
      counterexample traces);
    * ``language`` / ``engine`` — source language of the verified
      program and the resolved execution engine; recorded (with the
      tool name and version) under the single ``meta`` key that every
      manifest-writing path shares.  ``engine`` defaults to the
      report's ``stats.engine`` when available;
    * ``source`` — ``{"path": ..., "text": ...}`` of the verified
      program, embedded so ``repro report`` can annotate coverage onto
      source lines without re-reading the original file.
    """
    from .. import __version__

    if engine is None and report is not None and report.stats is not None:
        engine = report.stats.engine
    manifest: dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "tool": {"name": "repro", "version": __version__},
        # The one provenance block shared by every manifest writer
        # (search / replay / shrink): what tool, what engine,
        # what source language.  The legacy top-level "tool" and
        # "language" keys stay for older consumers.
        "meta": {
            "tool": "repro",
            "version": __version__,
            "engine": engine,
            "language": language,
        },
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": list(argv) if argv is not None else list(sys.argv),
        "host": host_info(),
        "git": git_info(),
    }
    if language is not None:
        manifest["language"] = language
    if source is not None:
        manifest["program"] = {
            "path": source.get("path"),
            "text": source.get("text"),
        }
    if options is not None:
        manifest["options"] = options.as_dict()
    if system is not None:
        try:
            manifest["system_fingerprint"] = system.fingerprint()
        except Exception:  # fingerprinting must never sink a run
            manifest["system_fingerprint"] = None
    if report is not None:
        block: dict[str, Any] = {
            "summary": report.summary(),
            "ok": report.ok,
            "paths_explored": report.paths_explored,
            "states_visited": report.states_visited,
            "transitions_executed": report.transitions_executed,
            "truncated": report.truncated,
            "incomplete": report.incomplete,
            "violation_groups": len(report.triage()) if not report.ok else 0,
        }
        if report.stats is not None:
            # First-class headline metrics (also inside "stats", but
            # dashboards comparing runs shouldn't have to dig for them).
            block["replay_fraction"] = report.stats.replay_fraction
            block["states_per_second"] = report.stats.states_per_second
            block["stats"] = report.stats.json_dict()
        if not report.ok:
            groups = report.triage()
            block["triage"] = [
                {
                    "kind": group.kind,
                    "count": group.count,
                    "label": group.describe(system=system),
                }
                for group in groups
            ]
        profile = getattr(report, "profile", None)
        if profile is not None:
            block["profile"] = profile.as_dict()
        coverage = getattr(report, "coverage", None)
        if coverage is not None:
            block["coverage"] = coverage.as_dict()
        workers = getattr(report, "worker_summary", None)
        if workers is not None:
            # Work-stealing runs: per-worker lease counts and liveness.
            block["workers"] = workers
        manifest["report"] = block
    if phases:
        manifest["phases"] = {
            name: round(seconds, 6) for name, seconds in phases.items()
        }
    if artifacts:
        manifest["artifacts"] = [str(path) for path in artifacts]
    return manifest


def write_manifest(
    directory_or_path: str | pathlib.Path, manifest: dict[str, Any]
) -> pathlib.Path:
    """Write ``manifest`` as JSON.  A directory argument gets the
    default ``run.json`` name inside it; a file path is used verbatim.
    Returns the path written."""
    path = pathlib.Path(directory_or_path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return path
