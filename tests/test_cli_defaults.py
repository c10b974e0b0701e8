"""The CLI states no search default: a flag left out keeps the
SearchOptions default."""

from repro import SearchOptions
from repro.cli import _options_from_args, build_parser
from repro.obs import Tracer
from repro.verisoft import ProgressPrinter


class TestSearchDefaults:
    def options(self, *argv):
        return _options_from_args(build_parser().parse_args(list(argv)))

    def test_bare_search_uses_the_search_defaults(self):
        assert self.options("search", "s.json").as_dict() == SearchOptions().as_dict()

    def test_bare_profile_differs_only_in_profile(self):
        expected = SearchOptions(profile=True).as_dict()
        assert self.options("profile", "s.json").as_dict() == expected

    def test_ticker_and_tracer_only_when_asked_for(self, tmp_path):
        for command in ("search", "profile"):
            bare = self.options(command, "s.json")
            assert bare.progress is None and bare.tracer is None
        for command in ("search", "profile"):
            asked = self.options(
                command, "s.json", "--progress", "--trace-out", str(tmp_path / "t.json")
            )
            assert isinstance(asked.progress, ProgressPrinter)
            assert isinstance(asked.tracer, Tracer)

    def test_flags_given_reach_the_options(self):
        options = self.options(
            "search", "s.json", "--no-por", "--stall-timeout", "0", "--coverage-json", "c.json"
        )
        assert (options.por, options.stall_timeout, options.coverage) == (False, None, True)
