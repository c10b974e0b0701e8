"""``repro report`` input checking: a run manifest either has the shape
the HTML report reads or is rejected with a located
:class:`ManifestFormatError`, never a raw exception."""

import functools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SearchOptions, run_search
from repro.cli import main
from repro.obs import (
    ManifestFormatError,
    build_manifest,
    check_manifest,
    load_manifest,
    render_html,
)

from .conftest import DEADLOCK_SRC, FIG2_SRC, fig2_system
from ..service.test_frontier import DELETE, JSON_VALUES, _json_path, _mutate, _spots


@functools.lru_cache(maxsize=None)
def _documents():
    """Two manifests as JSON text: Figure 2 searched with coverage and a
    profile (a triage group, toss points, the embedded source), and the
    same with a work-stealing ``workers`` block."""
    options = SearchOptions(coverage=True, profile=True)
    system = fig2_system()
    report = run_search(system, options)
    manifest = build_manifest(
        argv=["repro", "search", "fig2.json", "--coverage"],
        options=options,
        report=report,
        system=system,
        language="rc",
        source={"path": "fig2.rc", "text": FIG2_SRC},
    )
    fig2 = json.dumps(manifest)
    manifest["report"]["workers"] = {
        "worker-1": {"leases": 3, "stolen_from": 1, "alive": True},
        "worker-2": {"leases": 2, "stolen_from": 0, "alive": False},
    }
    return fig2, json.dumps(manifest)


class TestMalformedManifests:
    @given(st.data())
    def test_a_mutated_manifest_renders_or_names_the_bad_entry(self, data):
        doc = json.loads(data.draw(st.sampled_from(_documents())))
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
        try:
            manifest = check_manifest(doc)
        except ManifestFormatError as err:
            where = str(err).split(": ")[0]
            assert _json_path(path).startswith(where), (str(err), _json_path(path))
            # A library caller's unchecked dict gets the same located error.
            with pytest.raises(ManifestFormatError) as rendered:
                render_html(doc)
            assert str(rendered.value) == str(err)
        else:
            assert render_html(manifest).startswith("<!DOCTYPE html>")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "$: expected dict, got list"),
            ({"report": 3}, "$.report: expected dict or null, got int"),
            ({"report": {"coverage": [1]}}, "$.report.coverage: expected dict or null, got list"),
            ({"program": 5}, "$.program: expected dict or null, got int"),
            (
                {"search": "x", "report": {"stats": 7}},
                "$.report.stats: expected dict or null, got int",
            ),
            ({"argv": ["repro", 3]}, "$.argv[1]: expected str, got int"),
            (
                {"report": {"coverage": {"toss_values": {"p:3": {"values": {"x": 1}}}}}},
                "$.report.coverage.toss_values.p:3.values: key 'x' is not an integer",
            ),
        ],
    )
    def test_the_error_names_the_entry(self, doc, message):
        with pytest.raises(ManifestFormatError) as err:
            check_manifest(doc)
        assert str(err.value) == message

    def test_every_key_is_optional(self):
        assert render_html(check_manifest({})).startswith("<!DOCTYPE html>")

    @pytest.mark.parametrize("text", [b"\xff\xfe{", b"not json {"])
    def test_load_rejects_bytes_that_are_not_json(self, tmp_path, text):
        path = tmp_path / "run.json"
        path.write_bytes(text)
        with pytest.raises(ManifestFormatError, match="run.json: not valid JSON"):
            load_manifest(path)

    def test_report_prints_one_line_and_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"report": {"coverage": [1]}}')
        assert main(["report", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: $.report.coverage: expected dict or null, got list\n"


def test_source_override_replaces_a_null_program(tmp_path, capsys):
    manifest = tmp_path / "run.json"
    manifest.write_text('{"program": null}')
    source = tmp_path / "grab.rc"
    source.write_text(DEADLOCK_SRC)
    assert main(["report", str(manifest), "--source", str(source)]) == 0
    assert "grab.rc" in capsys.readouterr().out
