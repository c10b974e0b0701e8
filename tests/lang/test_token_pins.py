"""Pinned token streams and closed-CFG source locations.

perfbench pins the closed programs' source text, but not where their
nodes point back to: triage anchors, coverage reports and every located
error read ``SourceLocation``s.  This file pins, per program, two
sha256 digests, recorded while tokens and locations were still frozen
dataclasses, so that no change of their representation can move a
token or a location unnoticed:

* the token stream, one row ``(kind name, value, line, column)`` per
  token;
* the closed CFGs, one row ``(proc, node id, node kind, line, column)``
  per node, procedures and nodes in sorted order.

``PYTHONPATH=src python -m tests.lang.test_token_pins`` prints the
digests of the current source.  The same file checks that a token, a
location and a closed system survive pickling.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import pickle

import pytest

from repro import close_program
from repro.closing.generators import generate_sized_program
from repro.fiveess import build_app
from repro.lang.errors import SYNTHETIC, SourceLocation
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from repro.sysdesc import load_description, system_from_description

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

#: program -> (token stream digest, closed-CFG location digest).
PINNED = {
    "5ess": (
        "84535600dd9fdca002ae14c9b336e1c76466604446aee361d711b499ed873fc6",
        "d2e4843edbf7a940a487243ec6647fa61bb704f307db02d463cf408fad97ed36",
    ),
    "fig2": (
        "bfd29f0851fb52df273ab103aff1c279fec03a2429c9e42fe4f22b2770f27cdc",
        "0f019eea6435d3b8a3fec6da11349f5d443b011f4aa107afeb1c1d9fb7194ba1",
    ),
    "fig3": (
        "56f77b2c4290d06753dec47033b5e1ac0e7090cca5c27ff09d31967715128512",
        "abc32d039ed6c37f022f6cb8fdf2e0c9aba593b7e6272e2d67d93516c0fe7120",
    ),
    "sized-800-0": (
        "816c6c868355eaa40f797cf1e1fa462d1400bc3350f0108affcf9884af6971ac",
        "56d0058e3531d962fa19264201e57e7daede15b9cfeda242dcc2ff52e5715584",
    ),
    "sized-800-1": (
        "5c4b479a38c4ee87c3ed4c162edfe70599e5b869fab1141d5b32bea6444a1ba5",
        "56d0058e3531d962fa19264201e57e7daede15b9cfeda242dcc2ff52e5715584",
    ),
    "sized-800-2": (
        "99a83f2e9a773b1d4a249b2946fa51bb3d06d8bcf1609246518279cdafbf6bfd",
        "56d0058e3531d962fa19264201e57e7daede15b9cfeda242dcc2ff52e5715584",
    ),
    "sized-800-3": (
        "329f39507776efab1d187c3b810d6934e455e89b27c3542c05bac59d834fab07",
        "56d0058e3531d962fa19264201e57e7daede15b9cfeda242dcc2ff52e5715584",
    ),
}


def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def token_digest(source: str) -> str:
    return _sha(
        [
            (token.kind.name, token.value, token.location.line, token.location.column)
            for token in tokenize(source)
        ]
    )


def cfg_digest(cfgs) -> str:
    return _sha(
        [
            (proc, node_id, node.kind.name, node.location.line, node.location.column)
            for proc in sorted(cfgs)
            for node_id, node in sorted(cfgs[proc].nodes.items())
        ]
    )


def _figure(name: str):
    path = EXAMPLES / f"{name}.json"
    description = load_description(path)
    source = (EXAMPLES / description["program"]).read_text()
    return source, system_from_description(description, EXAMPLES)


def closed(name: str):
    """``(open source, closed CFGs)`` of one pinned program."""
    if name in ("fig2", "fig3"):
        source, system = _figure(name)
        return source, system.cfgs
    if name == "5ess":
        app = build_app(n_lines=2, calls_per_line=1)
        return app.source, app.close().cfgs
    _, size, seed = name.split("-")
    source = generate_sized_program(int(size), int(seed))
    return source, close_program(source).cfgs


def digests(name: str) -> tuple[str, str]:
    source, cfgs = closed(name)
    return token_digest(source), cfg_digest(cfgs)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_tokens_and_locations_are_pinned(name):
    assert digests(name) == PINNED[name]


class TestPickling:
    def test_token_round_trips(self):
        token = tokenize("  foo")[0]
        copy = pickle.loads(pickle.dumps(token))
        assert copy == token and type(copy) is Token
        assert copy.kind is TokenKind.IDENT and copy.value == "foo"
        assert type(copy.location) is SourceLocation

    def test_location_round_trips(self):
        location = SourceLocation(3, 7)
        copy = pickle.loads(pickle.dumps(location))
        assert copy == location and type(copy) is SourceLocation
        assert str(copy) == "3:7"
        assert pickle.loads(pickle.dumps(SYNTHETIC)) == SYNTHETIC

    def test_closed_system_round_trips(self):
        _, system = _figure("fig2")
        copy = pickle.loads(pickle.dumps(system))
        assert cfg_digest(copy.cfgs) == PINNED["fig2"][1]


if __name__ == "__main__":
    for name in sorted(PINNED):
        print(f'    "{name}": {digests(name)!r},')
