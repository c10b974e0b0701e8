"""The versioned trace format: round-trip, validation, version policy."""

import functools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SearchOptions, run_search
from repro.cli import main
from repro.counterex import (
    FORMAT,
    VERSION,
    TraceFile,
    TraceFormatError,
    load_trace,
    save_report_traces,
    save_trace,
    trace_file_for_event,
    verify_trace,
)
from repro.counterex.traceio import choices_from_json, choices_to_json
from repro.verisoft.results import (
    AssertionViolationEvent,
    ScheduleChoice,
    TossChoice,
    Trace,
)

from tests.service.test_frontier import DELETE, JSON_VALUES, _json_path, _mutate, _spots

from .conftest import DEADLOCK_SRC, FIG2_SRC, FIG3_SRC, deadlock_system, figure_system


def first_event(system):
    report = run_search(system, SearchOptions(max_depth=60, max_events=100))
    events = [e for e in report.all_events() if e.trace.choices]
    assert events, "expected the system to violate"
    return report, events[0]


class TestChoiceSerialization:
    def test_round_trip(self):
        choices = (ScheduleChoice("p"), TossChoice("p", 3), ScheduleChoice("q"))
        assert choices_from_json(choices_to_json(choices)) == choices

    def test_compact_encoding(self):
        payload = choices_to_json((ScheduleChoice("p"), TossChoice("q", 2)))
        assert payload == [["s", "p"], ["t", "q", 2]]

    def test_unknown_tag_rejected(self):
        with pytest.raises(TraceFormatError):
            choices_from_json([["x", "p"]])


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source, proc", [(FIG2_SRC, "p"), (FIG3_SRC, "q")], ids=["fig2", "fig3"]
    )
    def test_figure_violation_survives_save_load_replay(
        self, tmp_path, source, proc
    ):
        """Deliverable: save -> load -> replay equality on the Figure 2/3
        violations, toss choices included."""
        system = figure_system(source, proc)
        report, event = first_event(system)
        trace_file = trace_file_for_event(event, system=system, report=report)
        path = save_trace(tmp_path / "trace.json", trace_file)

        loaded = load_trace(path)
        assert loaded.trace == event.trace  # choices AND steps, exactly
        assert loaded.signature() == trace_file.signature()
        assert loaded.fingerprint == system.fingerprint()
        assert any(isinstance(c, TossChoice) for c in loaded.trace.choices)

        verdict = verify_trace(figure_system(source, proc), loaded)
        assert verdict.ok
        assert verdict.fingerprint_matched is True

    def test_rebuilt_event_matches_original(self, tmp_path):
        system = deadlock_system()
        report, event = first_event(system)
        path = save_trace(
            tmp_path / "d.json", trace_file_for_event(event, system=system)
        )
        assert load_trace(path).event() == event

    def test_search_metadata_recorded(self, tmp_path):
        system = deadlock_system()
        report, event = first_event(system)
        trace_file = trace_file_for_event(event, system=system, report=report)
        assert trace_file.search["strategy"] == "dfs"
        assert trace_file.search["options"]["max_depth"] == 60


class TestValidation:
    def doc(self, **overrides):
        system = deadlock_system()
        _, event = first_event(system)
        doc = trace_file_for_event(event, system=system).to_json()
        doc.update(overrides)
        return doc

    def test_format_tag_required(self):
        with pytest.raises(TraceFormatError, match="format"):
            TraceFile.from_json(self.doc(format="something-else"))

    def test_unknown_version_rejected(self):
        with pytest.raises(TraceFormatError, match="version"):
            TraceFile.from_json(self.doc(version=VERSION + 1))

    def test_unknown_keys_ignored(self):
        # Version policy: new optional keys may appear without a bump.
        loaded = TraceFile.from_json(self.doc(future_extension={"x": 1}))
        assert loaded.version == VERSION

    def test_missing_choices_rejected(self):
        doc = self.doc()
        del doc["choices"]
        with pytest.raises(TraceFormatError):
            TraceFile.from_json(doc)

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {")
        with pytest.raises(TraceFormatError, match="JSON"):
            load_trace(path)

    def test_traceless_event_rejected(self):
        event = AssertionViolationEvent(Trace((), ()), "p", "main", 1)
        with pytest.raises(ValueError, match="no trace"):
            trace_file_for_event(event)


class TestSaveReportTraces:
    def test_one_file_per_violation_in_stable_order(self, tmp_path):
        system = deadlock_system()
        report = run_search(system, SearchOptions(max_depth=40, max_events=100))
        written = save_report_traces(tmp_path / "traces", report, system=system)
        assert written
        assert [p.name for p in written] == sorted(p.name for p in written)
        assert all(p.name.startswith("deadlock-") for p in written)
        assert json.loads(written[0].read_text())["format"] == FORMAT

    def test_written_traces_all_replay(self, tmp_path):
        system = deadlock_system()
        report = run_search(system, SearchOptions(max_depth=40, max_events=100))
        for path in save_report_traces(tmp_path, report, system=system):
            assert verify_trace(deadlock_system(), load_trace(path)).ok

    def test_system_payload_embedded(self, tmp_path):
        system = deadlock_system()
        report = run_search(system, SearchOptions(max_depth=40))
        payload = {"program_source": DEADLOCK_SRC, "description": {"x": 1}}
        written = save_report_traces(
            tmp_path, report, system=system, system_payload=payload
        )
        assert load_trace(written[0]).system == payload


@functools.lru_cache(maxsize=None)
def _saved_documents():
    """Two saved traces as JSON text: Figure 2's assertion trace, with
    its system payload embedded as ``repro search --save-traces``
    writes it, and the deadlock system's trace."""
    fig2 = figure_system(FIG2_SRC, "p")
    report, event = first_event(fig2)
    description = {
        "program": "fig2.rc",
        "close": {"env_params": {"p": ["x"]}},
        "objects": [{"kind": "sink", "name": "out"}],
        "processes": [{"name": "P", "proc": "p", "args": []}],
    }
    payload = {"description": description, "program_source": FIG2_SRC}
    deadlock = deadlock_system()
    deadlock_report, deadlock_event = first_event(deadlock)
    return (
        json.dumps(
            trace_file_for_event(
                event, system=fig2, report=report, system_payload=payload
            ).to_json()
        ),
        json.dumps(
            trace_file_for_event(
                deadlock_event, system=deadlock, report=deadlock_report
            ).to_json()
        ),
    )


class TestMalformedDocuments:
    """``TraceFile.from_json``, ``event()`` and ``signature()`` are total:
    a malformed document raises :class:`TraceFormatError` naming the JSON
    path of the bad entry, never a raw exception."""

    @given(st.data())
    def test_a_mutated_trace_loads_or_names_the_bad_entry(self, data):
        doc = json.loads(data.draw(st.sampled_from(_saved_documents())))
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
            loaded = TraceFile.from_json(doc)
            loaded.event()
            hash(loaded.signature())
        except TraceFormatError as err:
            where = str(err).split(":")[0]
            assert _json_path(path).startswith(where), (str(err), _json_path(path))

    @pytest.mark.parametrize(
        "document, path, value, message",
        [
            (0, ("choices", 1), ["t", "P"], "$.choices[1]: expected 3 entries, got 2"),
            (0, ("choices", 2, 2), "1", "$.choices[2][2]: expected int, got str"),
            (0, ("steps", 0, 2), 3, "$.steps[0][2]: expected str or null, got int"),
            (0, ("violation", "node_id"), DELETE, "$.violation: missing key 'node_id'"),
            (0, ("violation", "signature", 2), {}, "$.violation.signature[2]: expected str"),
            (0, ("system", "description"), DELETE, "$.system: missing key 'description'"),
            (0, ("search", "options"), [], "$.search.options: expected dict, got list"),
            (1, ("violation", "waiting", 0), ["a"], "$.violation.waiting[0]: expected 3 entries"),
            (1, ("version",), True, "$.version: unsupported trace format version True"),
        ],
    )
    def test_the_error_names_the_entry(self, document, path, value, message):
        doc = json.loads(_saved_documents()[document])
        _mutate(doc, path, value)
        with pytest.raises(TraceFormatError) as err:
            TraceFile.from_json(doc)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("command", ["replay", "shrink"])
    def test_the_cli_exits_2_and_names_the_entry(self, tmp_path, capsys, command):
        doc = json.loads(_saved_documents()[0])
        _mutate(doc, ("violation", "signature"), DELETE)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        assert "$.violation: missing key 'signature'" in capsys.readouterr().err

    def test_load_rejects_bytes_that_are_not_text(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(TraceFormatError):
            load_trace(path)
