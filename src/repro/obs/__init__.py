"""repro.obs — the observability layer: tracing, profiling, coverage.

VeriSoft-style stateless search spends nearly all of its time
re-executing the program; this package is the measurement layer over
that machinery, threaded through the whole pipeline (parse → dataflow →
closing transform → search/replay/shrink):

* :mod:`repro.obs.tracer` — a lightweight span/event tracer with
  Chrome trace-event JSON export (``chrome://tracing`` / Perfetto):
  pipeline phases, per-path DFS spans, replay prefixes, per-worker
  parallel timelines;
* :mod:`repro.obs.observer` — the one observer protocol every search
  driver reports to (run start and restore, steps, tosses, recorded
  events, path end, finish), and :class:`Observation`, which builds the
  observers a search's options ask for;
* :mod:`repro.obs.profile` — a hot-spot profiler observing the search:
  per-CFG-node / per-operation / per-toss-point execution counts plus
  depth and branching histograms, rendered as top-N tables (``repro
  search --profile`` / ``repro profile``);
* :mod:`repro.obs.manifest` — structured ``run.json`` manifests
  (options, system fingerprint, git version, host, phase timings,
  final stats) written next to saved artifacts;
* :mod:`repro.obs.coverage` — CFG node/edge, source-line and
  environment-input (``VS_toss``) coverage riding the engines' node
  traces, counter-exact across engines, job counts and work-stealing
  shards (``repro search --coverage``);
* :mod:`repro.obs.report` — self-contained, zero-asset HTML run
  reports rendered from manifests (``repro report run.json -o
  report.html``).

Observation is **near zero-cost when disabled**: a search holds one
observer reference that is ``None`` when nothing observes, so each
event site costs one branch, and nothing is constructed unless
requested (overhead measured by ``benchmarks/bench_obs.py``).
"""

from .coverage import CoverageCollector
from .manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    build_manifest,
    git_info,
    host_info,
    write_manifest,
)
from .observer import Observation, SearchObserver
from .profile import HotSpotProfiler
from .report import (
    ManifestFormatError,
    check_manifest,
    load_manifest,
    render_html,
    write_report,
)
from .tracer import Tracer, validate_chrome_trace

__all__ = [
    "CoverageCollector",
    "HotSpotProfiler",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "ManifestFormatError",
    "Observation",
    "SearchObserver",
    "Tracer",
    "build_manifest",
    "check_manifest",
    "git_info",
    "host_info",
    "load_manifest",
    "render_html",
    "validate_chrome_trace",
    "write_manifest",
    "write_report",
]
