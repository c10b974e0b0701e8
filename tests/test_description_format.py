"""System descriptions: a description either builds or is refused with a
:class:`DescriptionError` at the JSON path of the bad entry, whether it
comes from a ``.json`` file, a ``.py`` program or a trace's embedded
payload, never with a raw exception."""

import functools
import json
import pathlib
import shutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.sysdesc import DescriptionError, load_description, system_from_description

from .service.test_frontier import DELETE, JSON_VALUES, _json_path, _mutate, _spots

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


@functools.lru_cache(maxsize=None)
def _documents():
    """Figures 2 and 3 as written, and the description the Python front
    end derives from ``py_pinger.py``, as JSON text."""
    return tuple(
        json.dumps(load_description(EXAMPLES / name))
        for name in ("fig2.json", "fig3.json", "py_pinger.py")
    )


#: A process is checked against the objects its arguments name and
#: against its procedure's parameters after the closing removed the
#: environment's.  Deleting those declarations leaves a process that no
#: longer fits, and the process is where that is refused.
_USED_BY_PROCESSES = ("$.objects", "$.close")


class TestMalformedDescriptions:
    @given(st.data())
    def test_a_mutated_description_builds_or_names_the_bad_entry(self, data):
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
            system_from_description(doc, EXAMPLES)
        except DescriptionError as err:
            where, mutated = str(err).split(": ")[0], _json_path(path)
            at_a_process = where.startswith("$.processes[")
            assert mutated.startswith(where) or (
                delete and mutated.startswith(_USED_BY_PROCESSES) and at_a_process
            ), (str(err), mutated)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("objects", 0, "kind"), "pipe", "$.objects[0].kind: unknown object kind 'pipe'"),
            (("objects", 1, "name"), "reports", "$.objects[1].name: duplicate object name"),
            (("objects", 0, "capacity"), True, "$.objects[0].capacity: expected int, got bool"),
            (("processes", 0, "args", 0), {}, "$.processes[0].args[0]: missing key 'object'"),
            (("processes", 0, "args", 1), 1.5, "$.processes[0].args[1]: expected int or bool or"),
            (("processes", 0, "args", 0, "object"), "x", "$.processes[0].args[0].object: unknown"),
            (("processes", 1, "name"), "pinger", "$.processes[1]: duplicate process name"),
            (("processes", 1, "args"), DELETE, "$.processes[1]: process 'monitor': procedure"),
            (("close", "object_bindings", "x"), [], "$.close.object_bindings: keys must look like"),
            (("close", "optimize"), "yes", "$.close.optimize: expected bool, got str"),
            (("program",), DELETE, "$: missing key 'program'"),
        ],
    )
    def test_the_error_names_the_entry(self, path, value, message):
        doc = json.loads(_documents()[2])
        _mutate(doc, path, value)
        with pytest.raises(DescriptionError) as err:
            system_from_description(doc, EXAMPLES)
        assert str(err.value).startswith(message), str(err.value)


#: Descriptions that crashed ``repro search`` with a raw traceback, and
#: the located refusal each gets instead.
PROBES = [
    ([1, 2], "$: expected dict, got list"),
    ({"program": 5}, "$.program: expected str, got int"),
    ({"program": "fig2.rc", "objects": 3}, "$.objects: expected list, got int"),
    ({"program": "fig2.rc", "objects": [{"name": "out"}]}, "$.objects[0]: missing key 'kind'"),
    ({"program": "fig2.rc", "processes": [{"proc": "p"}]}, "$.processes[0]: missing key 'name'"),
    (
        {"program": "fig2.rc", "close": {"env_params": 7}},
        "$.close.env_params: expected dict, got int",
    ),
]


@pytest.mark.parametrize("doc, message", PROBES)
def test_search_refuses_a_malformed_description_in_one_line(tmp_path, capsys, doc, message):
    shutil.copy(EXAMPLES / "fig2.rc", tmp_path)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    assert main(["search", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]


def test_replay_refuses_a_trace_whose_description_is_malformed(tmp_path, capsys):
    traces = tmp_path / "traces"
    assert main(["search", str(EXAMPLES / "fig2.json"), "--save-traces", str(traces)]) == 3
    path = traces / "assertion-000.json"
    doc = json.loads(path.read_text())
    del doc["system"]["description"]["processes"][0]["name"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: $.system.description.processes[0]: missing key 'name'"
    ]
