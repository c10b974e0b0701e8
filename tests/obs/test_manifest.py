"""Tests for the structured run manifest (run.json)."""

import json

from repro import SearchOptions, run_search
from repro.obs import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    build_manifest,
    git_info,
    host_info,
    write_manifest,
)


class TestBlocks:
    def test_minimal_manifest(self):
        manifest = build_manifest(argv=["repro", "search", "sys.json"])
        assert manifest["manifest_version"] == MANIFEST_VERSION
        assert manifest["tool"]["name"] == "repro"
        assert manifest["argv"] == ["repro", "search", "sys.json"]
        assert "created" in manifest
        assert manifest["host"]["python"]

    def test_host_info_fields(self):
        info = host_info()
        assert info["hostname"]
        assert info["cpu_count"] >= 1

    def test_git_info_none_outside_checkout(self, tmp_path):
        assert git_info(cwd=tmp_path) is None

    def test_full_manifest_records_run(self, fig2):
        options = SearchOptions(profile=True)
        report = run_search(fig2, options)
        manifest = build_manifest(
            options=options,
            report=report,
            system=fig2,
            phases={"search": 0.1234567},
            artifacts=["trace.json"],
        )
        assert manifest["options"]["profile"] is True
        assert manifest["report"]["transitions_executed"] == (
            report.transitions_executed
        )
        assert manifest["report"]["stats"]["states_visited"] == (
            report.states_visited
        )
        assert manifest["report"]["profile"]["total_transitions"] > 0
        assert manifest["report"]["violation_groups"] == 1
        assert manifest["system_fingerprint"] == fig2.fingerprint()
        assert manifest["phases"] == {"search": 0.123457}  # rounded
        assert manifest["artifacts"] == ["trace.json"]
        json.dumps(manifest, default=str)  # serializable

    def test_fingerprint_failure_degrades_to_none(self):
        class Unfingerprintable:
            def fingerprint(self):
                raise RuntimeError("no")

        manifest = build_manifest(system=Unfingerprintable())
        assert manifest["system_fingerprint"] is None


class TestMetaBlock:
    """Every manifest writer (search / replay / shrink) goes through
    :func:`build_manifest`, so the one ``meta``
    provenance block is schema-stable: tool, version, engine, language."""

    def test_meta_keys_always_present(self):
        meta = build_manifest()["meta"]
        assert sorted(meta) == ["engine", "language", "tool", "version"]
        assert meta["tool"] == "repro"
        assert meta["version"]
        assert meta["engine"] is None and meta["language"] is None

    def test_engine_defaults_from_report_stats(self, fig2):
        report = run_search(fig2, SearchOptions(engine="compiled"))
        manifest = build_manifest(report=report, language="rc")
        assert manifest["meta"]["engine"] == "compiled"
        assert manifest["meta"]["language"] == "rc"
        # Legacy top-level keys stay for older consumers.
        assert manifest["language"] == "rc"
        assert manifest["tool"]["name"] == "repro"

    def test_explicit_engine_wins(self, fig2):
        report = run_search(fig2, SearchOptions())
        manifest = build_manifest(report=report, engine="walk")
        assert manifest["meta"]["engine"] == "walk"

    def test_source_block_embeds_program(self):
        manifest = build_manifest(source={"path": "a.py", "text": "x = 1\n"})
        assert manifest["program"] == {"path": "a.py", "text": "x = 1\n"}


class TestWriting:
    def test_directory_gets_default_name(self, tmp_path):
        path = write_manifest(tmp_path, {"manifest_version": 1})
        assert path == tmp_path / MANIFEST_NAME
        assert json.loads(path.read_text())["manifest_version"] == 1

    def test_file_path_used_verbatim(self, tmp_path):
        target = tmp_path / "deep" / "custom.run.json"
        path = write_manifest(target, {"a": 1})
        assert path == target
        assert json.loads(target.read_text()) == {"a": 1}
