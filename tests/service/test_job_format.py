"""``Job.load`` and ``Job.search_options`` are total.

A ``job.json`` that is not UTF-8 JSON, lacks a required key or holds a
value of the wrong type raises :class:`JobFormatError` naming the file
and the JSON path of the bad entry, never a raw exception, and the CLI
prints it and exits 2.
"""

import functools
import json
import pathlib
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.service import JobStore
from repro.service.jobs import Job, JobFormatError
from tests.service.test_frontier import DELETE, JSON_VALUES, _json_path, _mutate, _spots
from tests.service.test_jobs import _submit_fig3


@functools.lru_cache(maxsize=None)
def _job_document() -> str:
    """A submitted Figure 3 job's ``job.json`` text."""
    with tempfile.TemporaryDirectory() as root:
        job = _submit_fig3(JobStore(root))
        return job.job_path.read_text()


def _store_with(root: pathlib.Path, text: str | bytes) -> pathlib.Path:
    """A store whose one job directory holds ``text`` as its job.json."""
    directory = root / "job-bad"
    directory.mkdir(parents=True)
    path = directory / "job.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return path


def _load(path: pathlib.Path):
    job = Job.load(path.parent)
    job.search_options()
    return job


class TestMalformedJobs:
    @given(st.data())
    def test_a_mutated_job_loads_or_names_the_bad_entry(self, data):
        doc = json.loads(_job_document())
        delete = data.draw(st.booleans(), label="delete a key")
        spots = [path for path, is_key in _spots(doc) if is_key or not delete]
        path = data.draw(st.sampled_from(spots), label="path")
        if delete:
            value = DELETE
        else:
            old = functools.reduce(lambda node, part: node[part], path, doc)
            value = data.draw(
                st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)])
            )
        _mutate(doc, path, value)
        with tempfile.TemporaryDirectory() as root:
            job_path = _store_with(pathlib.Path(root), json.dumps(doc))
            try:
                _load(job_path)
            except JobFormatError as err:
                filename, where = str(err).split(": ")[:2]
                assert filename == str(job_path)
                assert _json_path(path).startswith(where), (str(err), _json_path(path))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("id",), DELETE, "$: missing key 'id'"),
            (("options",), [1], "$.options: expected dict, got list"),
            (("options", "max_depth"), "9", "$.options.max_depth: expected int, got str"),
            (("options", "por"), 1, "$.options.por: expected bool, got int"),
            (("options", "max_depth"), 0, "$.options: max_depth must be >= 1"),
            (("state",), "paused", "$.state: unknown job state 'paused'"),
            (("system", "description"), [], "$.system.description: expected dict, got list"),
            (("created",), "today", "$.created: expected float or int, got str"),
        ],
    )
    def test_the_error_names_the_file_and_entry(self, tmp_path, path, value, message):
        doc = json.loads(_job_document())
        _mutate(doc, path, value)
        job_path = _store_with(tmp_path, json.dumps(doc))
        with pytest.raises(JobFormatError) as err:
            _load(job_path)
        assert str(err.value).startswith(f"{job_path}: {message}")

    @pytest.mark.parametrize("text", ['{"id": "job-bad", "state": ', b"\xff\xfe{"])
    def test_text_that_is_not_json(self, tmp_path, text):
        job_path = _store_with(tmp_path, text)
        with pytest.raises(JobFormatError) as err:
            Job.load(job_path.parent)
        assert str(err.value).startswith(f"{job_path}: not valid JSON")

    @pytest.mark.parametrize("argv", [["jobs"], ["jobs", "job-bad"], ["serve", "--once"]])
    def test_the_cli_exits_2_and_names_the_file(self, tmp_path, capsys, argv):
        doc = json.loads(_job_document())
        del doc["id"]
        job_path = _store_with(tmp_path, json.dumps(doc))
        assert main([*argv, "--jobs-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{job_path}: $: missing key 'id'" in err
        assert "Traceback" not in err


class TestMalformedStoreFiles:
    """The store's other files: a malformed ``stats.json`` is a located
    error, and a malformed ``job.json`` does not stop ``repro serve``."""

    @pytest.mark.parametrize(
        "content, argv, message",
        [
            ("[1, 2]", ["jobs", "{id}", "--json"], "$: expected dict, got list"),
            ('{"state": "running"}', ["jobs", "{id}"], "$: missing key 'stats'"),
            (b"\xff\xfe{", ["jobs"], "not valid JSON"),
        ],
    )
    def test_a_malformed_stats_file_is_named(self, tmp_path, capsys, content, argv, message):
        job = _submit_fig3(JobStore(tmp_path))
        if isinstance(content, bytes):
            job.stats_path.write_bytes(content)
        else:
            job.stats_path.write_text(content)
        with pytest.raises(JobFormatError) as err:
            job.latest_stats()
        assert str(err.value).startswith(f"{job.stats_path}: {message}")
        argv = [arg.format(id=job.id) for arg in argv]
        assert main([*argv, "--jobs-dir", str(tmp_path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {err.value}"]

    def test_serve_skips_a_malformed_job_and_runs_the_valid_one(self, tmp_path, capsys):
        store = JobStore(tmp_path)
        valid = _submit_fig3(store)
        doc = json.loads(_job_document())
        del doc["id"]
        bad_path = _store_with(tmp_path, json.dumps(doc))
        assert store.claim_next(on_malformed=lambda err: None).id == valid.id
        (valid.directory / ".claim").unlink()

        assert main(["serve", "--once", "--jobs-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"{bad_path}: $: missing key 'id'") == 1
        assert "ran 1 job(s)" in err
        assert "Traceback" not in err
        assert store.get(valid.id).state == "done"
