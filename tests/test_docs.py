"""Documentation hygiene: every module, public class and public function
of the library carries a docstring (deliverable (e)), and every
alternative implementation has a row in the alternatives table of
``docs/performance.md``."""

import importlib
import inspect
import json
import pathlib
import pkgutil
import re

import pytest

import repro

ROOT = pathlib.Path(__file__).parent.parent


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            yield importlib.import_module(info.name)
        except ImportError:
            continue  # optional dependency missing (cfront without pycparser)


ALL_MODULES = list(_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        if inspect.isclass(member) or inspect.isfunction(member):
            if not (member.__doc__ and member.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module.__name__}: {undocumented}"


def test_examples_have_docstrings():
    examples = ROOT / "examples"
    for path in examples.glob("*.py"):
        text = path.read_text()
        assert text.lstrip().startswith(('"""', "#!")), path.name
        assert '"""' in text, f"{path.name} lacks a module docstring"


def _alternatives_rows() -> list[str]:
    text = (ROOT / "docs" / "performance.md").read_text()
    section = text.split("\n## Alternative implementations\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    return rows[1:]  # the header


def test_every_alternative_has_a_row_with_evidence():
    from repro.runtime.engine import ENGINES
    from repro.statespace import STORE_KINDS
    from repro.verisoft.search import BACKTRACK_MODES, CACHE_MODES, SCHEDULERS

    rows = _alternatives_rows()
    named = {
        match.groups()
        for row in rows
        for match in re.finditer(r'`(\w+)="([^"]+)"`', row.split("|")[1])
    }
    modes = {
        "engine": ENGINES,
        "backtrack": BACKTRACK_MODES,
        "state_cache": [kind for kind in STORE_KINDS if kind != "off"],
        "cache_mode": CACHE_MODES,
        "scheduler": SCHEDULERS,
    }
    missing = [
        f'{field}="{value}"'
        for field, values in modes.items()
        for value in values
        if (field, value) not in named
    ]
    assert not missing, f"no row in docs/performance.md for {missing}"

    for row in rows:
        benches = re.findall(r"`(BENCH_\w+\.json)`(?: `([^`]+)`)?", row)
        tests = re.findall(r"`(tests/[\w/]+\.py)`", row)
        assert benches or tests, f"row cites no BENCH file or test: {row}"
        for path in tests:
            assert (ROOT / path).is_file(), path
        for name, key in benches:
            assert (ROOT / name).is_file(), f"{name} does not exist"
            data = json.loads((ROOT / name).read_text())
            for part in key.split("/") if key else ():
                assert part in data, f"{name} has no entry {key}"
                data = data[part]


#: The documents whose backticked ``repro.…`` names must exist.
NAMED_DOCUMENTS = [
    ROOT / "DESIGN.md",
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]


def _resolves(name: str) -> bool:
    """``name`` imports as a module, or is an attribute (chain) of the
    longest importable module prefix."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(value, attr):
                return False
            value = getattr(value, attr)
        return True
    return False


def test_documented_module_names_exist():
    names = {
        (path.name, name)
        for path in NAMED_DOCUMENTS
        for name in re.findall(r"`(repro(?:\.\w+)+)", path.read_text())
    }
    assert len(names) > 40
    missing = sorted((doc, name) for doc, name in names if not _resolves(name))
    assert not missing, missing
