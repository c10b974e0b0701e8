"""Every JSON document the CLI loads is refused the same way: exit 2 and
one ``error: <file>: ...`` line, with the JSON path of the bad entry
when the document parses."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.service import SearchCheckpoint

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def _description(tmp_path):
    (tmp_path / "fig2.rc").write_text((EXAMPLES / "fig2.rc").read_text())
    return tmp_path / "d.json", json.loads((EXAMPLES / "fig2.json").read_text())


def _trace(tmp_path):
    traces = tmp_path / "traces"
    assert main(["search", str(EXAMPLES / "fig2.json"), "--save-traces", str(traces)]) == 3
    path = traces / "assertion-000.json"
    return path, json.loads(path.read_text())


def _frontier(tmp_path):
    return tmp_path / "ck.json", SearchCheckpoint(pending=[None]).to_json()


def _manifest(tmp_path):
    return tmp_path / "run.json", {"meta": {"tool": "repro"}, "report": {"stats": {}}}


#: Each document: how to make a valid one, the command that loads it,
#: and one entry to give the wrong type with the path the error names.
DOCUMENTS = {
    "description": (_description, lambda path: ["search", str(path)], ("processes", 0, "name")),
    "trace": (_trace, lambda path: ["replay", str(path)], ("choices", 0, 1)),
    "frontier": (
        _frontier,
        lambda path: ["search", str(EXAMPLES / "fig3.json"), "--checkpoint", str(path)],
        ("leases",),
    ),
    "manifest": (_manifest, lambda path: ["report", str(path)], ("report", "stats")),
}


def _write(path, doc, case, entry):
    """Write the ``case`` variant of ``doc`` to ``path``; returns the
    JSON path the error must name, if any."""
    text = json.dumps(doc)
    if case == "directory":
        path.mkdir()
    elif case == "not UTF-8":
        path.write_bytes(b"\xff\xfe" + text.encode())
    elif case == "truncated":
        path.write_text(text[: len(text) // 2])
    elif case == "top-level list":
        path.write_text(json.dumps([doc]))
        return "$"
    else:
        parent = doc
        for part in entry[:-1]:
            parent = parent[part]
        parent[entry[-1]] = 7.5
        path.write_text(json.dumps(doc))
        return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in entry)
    return None


@pytest.mark.parametrize(
    "case", ["directory", "not UTF-8", "truncated", "top-level list", "wrong type"]
)
@pytest.mark.parametrize("document", list(DOCUMENTS))
def test_a_refused_document_exits_2_with_one_located_line(tmp_path, capsys, document, case):
    make, command, entry = DOCUMENTS[document]
    path, doc = make(tmp_path)
    path.unlink(missing_ok=True)
    where = _write(path, doc, case, entry)
    capsys.readouterr()
    assert main(command(path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err
    if where is not None:
        assert err[0].startswith(f"error: {path}: {where}: "), err
