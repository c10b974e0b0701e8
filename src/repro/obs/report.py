"""Self-contained HTML run reports from ``run.json`` manifests.

``repro report run.json -o report.html`` turns a run manifest (see
:mod:`repro.obs.manifest`) into a single HTML file with **zero external
assets** — inline CSS, no JavaScript, no fonts, no CDN — so it can be
attached to a CI run, mailed around, or archived next to the manifest
and still render identically years later.

Sections (each rendered only when its data is present in the manifest):

* run summary — verdict badge, headline counters, provenance
  (tool/engine/language ``meta`` block, git, host, command line);
* triage — violation groups with multiplicities;
* coverage — node/edge/toss-point tables from the embedded
  :meth:`~repro.obs.coverage.CoverageCollector.as_dict` payload,
  uncovered-code callouts, and (when the manifest embeds the program
  text) a per-source-line annotated listing;
* hot spots — top-N node/operation/toss tables from the embedded
  :class:`~repro.obs.profile.HotSpotProfiler` payload;
* workers — per-worker lease accounting of work-stealing runs.

Everything here is stdlib-only and pure (manifest dict in, HTML string
out), so it is equally usable as a library:

    from repro.obs.report import render_html
    html = render_html(json.loads(run_json_text))
"""

from __future__ import annotations

import html as _html
import pathlib
from typing import Any

from ..jsondoc import NULL, FormatError, Shape

__all__ = [
    "ManifestFormatError",
    "check_manifest",
    "load_manifest",
    "render_html",
    "write_report",
]


def _esc(value: Any) -> str:
    return _html.escape(str(value), quote=True)


_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, Helvetica, Arial,
       sans-serif; margin: 2rem auto; max-width: 70rem; padding: 0 1rem;
       color: #1b1f24; background: #ffffff; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #d0d7de;
     padding-bottom: .4rem; }
h2 { font-size: 1.15rem; margin-top: 2rem; border-bottom: 1px solid
     #d0d7de; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .8rem 0; font-size: .9rem; }
th, td { border: 1px solid #d0d7de; padding: .3rem .6rem;
         text-align: left; vertical-align: top; }
th { background: #f6f8fa; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.badge { display: inline-block; padding: .15rem .6rem; border-radius:
         .8rem; font-weight: 600; font-size: .85rem; color: #fff; }
.badge.ok { background: #1a7f37; }
.badge.bad { background: #cf222e; }
.badge.warn { background: #9a6700; }
.cards { display: flex; flex-wrap: wrap; gap: .8rem; margin: 1rem 0; }
.card { border: 1px solid #d0d7de; border-radius: .4rem; padding:
        .5rem .9rem; min-width: 7rem; background: #f6f8fa; }
.card .value { font-size: 1.3rem; font-weight: 600;
               font-variant-numeric: tabular-nums; }
.card .label { font-size: .75rem; color: #57606a;
               text-transform: uppercase; letter-spacing: .03em; }
.bar { display: inline-block; width: 8rem; height: .7rem; background:
       #eaeef2; border-radius: .35rem; overflow: hidden;
       vertical-align: middle; margin-right: .5rem; }
.bar span { display: block; height: 100%; background: #1a7f37; }
.bar.partial span { background: #9a6700; }
.bar.low span { background: #cf222e; }
.mono { font-family: ui-monospace, 'SF Mono', Menlo, Consolas,
        monospace; font-size: .85rem; }
.callout { border-left: 4px solid #cf222e; background: #fff1f0;
           padding: .5rem .8rem; margin: .6rem 0; font-size: .9rem; }
.callout.info { border-color: #0969da; background: #f0f6ff; }
pre.src { border: 1px solid #d0d7de; border-radius: .4rem; padding: 0;
          overflow-x: auto; font-size: .8rem; line-height: 1.45;
          font-family: ui-monospace, 'SF Mono', Menlo, Consolas,
          monospace; }
pre.src .ln { display: block; margin: 0; padding: 0 .6rem;
              white-space: pre; }
pre.src .ln .no { display: inline-block; width: 3.2rem; color: #8c959f;
                  text-align: right; padding-right: .8rem;
                  user-select: none; }
pre.src .ln .ct { display: inline-block; width: 4rem; color: #57606a;
                  text-align: right; padding-right: .8rem; }
pre.src .hit { background: #dafbe1; }
pre.src .miss { background: #ffd8d3; }
footer { margin-top: 3rem; color: #57606a; font-size: .8rem;
         border-top: 1px solid #d0d7de; padding-top: .5rem; }
"""


def _bar(percent: float) -> str:
    cls = "bar" if percent >= 99.995 else ("bar partial" if percent >= 50 else "bar low")
    width = max(0.0, min(100.0, percent))
    return (
        f'<span class="{cls}"><span style="width:{width:.1f}%"></span></span>'
        f"{percent:.1f}%"
    )


def _cards(pairs: list[tuple[str, Any]]) -> str:
    cells = "".join(
        f'<div class="card"><div class="value">{_esc(value)}</div>'
        f'<div class="label">{_esc(label)}</div></div>'
        for label, value in pairs
        if value is not None
    )
    return f'<div class="cards">{cells}</div>'


def _table(headers: list[str], rows: list[list[str]], numeric: set[int] = frozenset()) -> str:
    """Rows are pre-escaped/pre-rendered HTML cell strings."""
    head = "".join(
        f'<th class="num">{h}</th>' if i in numeric else f"<th>{h}</th>"
        for i, h in enumerate(headers)
    )
    body = "".join(
        "<tr>"
        + "".join(
            f'<td class="num">{cell}</td>' if i in numeric else f"<td>{cell}</td>"
            for i, cell in enumerate(row)
        )
        + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def _summary_section(manifest: dict) -> str:
    report = manifest.get("report") or {}
    meta = manifest.get("meta") or {}
    stats = report.get("stats") or {}
    ok = report.get("ok")
    if ok is None:
        badge = '<span class="badge warn">no report</span>'
    elif ok:
        badge = '<span class="badge ok">clean</span>'
    else:
        badge = '<span class="badge bad">violations</span>'
    flags = []
    if report.get("truncated"):
        flags.append('<span class="badge warn">truncated</span>')
    if report.get("incomplete"):
        flags.append('<span class="badge warn">incomplete</span>')

    sps = stats.get("states_per_second")
    coverage_pct = stats.get("coverage_percent")
    cards = _cards(
        [
            ("paths", report.get("paths_explored")),
            ("states", report.get("states_visited")),
            ("transitions", report.get("transitions_executed")),
            ("states/s", None if sps is None else f"{sps:,.0f}"),
            ("wall time", None if "wall_time" not in stats else f"{stats['wall_time']:.2f}s"),
            ("coverage", None if coverage_pct is None else f"{coverage_pct:.1f}%"),
            ("violation groups", report.get("violation_groups")),
        ]
    )

    prov_rows = []
    for label, value in [
        ("tool", f"{meta.get('tool', 'repro')} {meta.get('version', '?')}"),
        ("engine", meta.get("engine")),
        ("language", meta.get("language")),
        ("strategy", stats.get("strategy")),
        ("jobs", stats.get("jobs") or None),
        ("created", manifest.get("created")),
        ("system fingerprint", manifest.get("system_fingerprint")),
        ("git", (manifest.get("git") or {}).get("describe") or (manifest.get("git") or {}).get("commit")),
        ("host", (manifest.get("host") or {}).get("hostname")),
        ("command", " ".join(manifest.get("argv") or []) or None),
    ]:
        if value is not None:
            prov_rows.append([_esc(label), f'<span class="mono">{_esc(value)}</span>'])

    summary_line = report.get("summary")
    line = (
        f'<p class="mono">{_esc(summary_line)}</p>' if summary_line else ""
    )
    return (
        f"<h2>Run summary</h2><p>{badge} {' '.join(flags)}</p>"
        + cards
        + line
        + _table(["", ""], prov_rows)
    )


def _triage_section(manifest: dict) -> str:
    report = manifest.get("report") or {}
    groups = report.get("triage")
    if not groups:
        return ""
    rows = [
        [_esc(g.get("kind", "?")), _esc(g.get("count", "?")), _esc(g.get("label", ""))]
        for g in groups
    ]
    return "<h2>Violation groups</h2>" + _table(
        ["kind", "count", "signature"], rows, numeric={1}
    )


def _node_label(static: dict, proc: str, nid: str) -> str:
    info = ((static.get("procs") or {}).get(proc) or {}).get("nodes", {}).get(str(nid))
    if not info:
        return f"{proc}:{nid}"
    where = f" line {info['line']}" if info.get("line", 0) > 0 else ""
    return f"{proc}:{nid} ({info.get('kind', '?')}{where})"


def _coverage_section(manifest: dict) -> str:
    report = manifest.get("report") or {}
    coverage = report.get("coverage")
    if not coverage:
        return ""
    summary = coverage.get("summary") or {}
    static = coverage.get("static") or {}
    out = ["<h2>Coverage</h2>"]
    nodes_total = summary.get("nodes_total", 0)
    node_pct = summary.get("node_percent", 0.0)
    out.append(
        _cards(
            [
                ("nodes", f"{summary.get('nodes_covered', 0)}/{nodes_total}"),
                ("edges", f"{summary.get('edges_covered', 0)}/{summary.get('edges_total', 0)}"),
                (
                    "toss points",
                    f"{summary.get('toss_points_covered', 0)}/{summary.get('toss_points_total', 0)}",
                ),
                (
                    "source lines",
                    None
                    if not summary.get("lines_total")
                    else f"{summary.get('lines_reached', 0)}/{summary.get('lines_total', 0)}",
                ),
            ]
        )
    )

    # Per-procedure node coverage.
    procs = coverage.get("procs") or {}
    if procs:
        rows = []
        for proc_name in sorted(procs):
            info = procs[proc_name]
            total = info.get("nodes_total", 0)
            covered = info.get("nodes_covered", 0)
            pct = 100.0 * covered / total if total else 0.0
            unreached = info.get("unreached") or []
            rows.append(
                [
                    f'<span class="mono">{_esc(proc_name)}</span>',
                    f"{covered}/{total}",
                    _bar(pct),
                    _esc(", ".join(map(str, unreached))) if unreached else "&mdash;",
                ]
            )
        out.append("<h3>Per procedure</h3>")
        out.append(_table(["procedure", "nodes", "coverage", "unreached node ids"], rows, numeric={1}))

    # Per-process coverage (each process only sees its reachable procs).
    processes = coverage.get("processes") or {}
    if processes:
        rows = []
        for name in sorted(processes):
            info = processes[name]
            total = info.get("nodes_total", 0)
            covered = info.get("nodes_covered", 0)
            pct = 100.0 * covered / total if total else 0.0
            rows.append(
                [
                    f'<span class="mono">{_esc(name)}</span>',
                    _esc(", ".join(info.get("procs") or [])),
                    f"{covered}/{total}",
                    _bar(pct),
                ]
            )
        out.append("<h3>Per process</h3>")
        out.append(_table(["process", "procedures", "nodes", "coverage"], rows, numeric={2}))

    # Environment-input (toss) coverage — after closing, every extern
    # call site is a toss point, so this is extern-call coverage too.
    toss = coverage.get("toss_values") or {}
    if toss:
        rows = []
        for key in sorted(toss):
            point = toss[key]
            bound = point.get("bound")
            values = point.get("values") or {}
            missing = point.get("missing") or []
            proc, _, nid = key.rpartition(":")
            seen = ", ".join(
                f"{value}&times;{count}" for value, count in sorted(
                    values.items(), key=lambda item: int(item[0])
                )
            )
            rows.append(
                [
                    f'<span class="mono">{_esc(_node_label(static, proc, nid))}</span>',
                    "?" if bound is None else f"0&ndash;{bound}",
                    seen or "&mdash;",
                    _esc(", ".join(map(str, missing))) if missing else "&mdash;",
                ]
            )
        out.append("<h3>Environment inputs (toss points)</h3>")
        out.append(_table(["toss point", "range", "values seen (&times; count)", "never driven"], rows))

    # Uncovered-code callouts.
    callouts = []
    for proc_name in sorted(procs):
        for nid in procs[proc_name].get("unreached") or []:
            callouts.append(_node_label(static, proc_name, nid))
    if callouts:
        items = "".join(f"<li><span class='mono'>{_esc(c)}</span></li>" for c in callouts)
        out.append(
            f'<div class="callout"><strong>Never executed:</strong>'
            f"<ul>{items}</ul></div>"
        )
    missing_lines = summary.get("lines_missing") or []
    if missing_lines:
        out.append(
            '<div class="callout"><strong>Source lines never executed:</strong> '
            + _esc(", ".join(map(str, missing_lines)))
            + "</div>"
        )
    elif summary.get("lines_total"):
        out.append(
            '<div class="callout info">Every source line with executable '
            "code was reached.</div>"
        )
    return "".join(out)


def _line_counts(coverage: dict) -> dict[int, tuple[int, int, int]]:
    """line -> (nodes, covered, visit count), from the embedded payload."""
    static = coverage.get("static") or {}
    counts = coverage.get("nodes") or {}
    lines: dict[int, list[int]] = {}
    for proc_name, proc in (static.get("procs") or {}).items():
        for nid, info in (proc.get("nodes") or {}).items():
            line = info.get("line", 0)
            if line <= 0:
                continue
            entry = lines.setdefault(line, [0, 0, 0])
            entry[0] += 1
            count = counts.get(f"{proc_name}:{nid}", 0)
            if count:
                entry[1] += 1
                entry[2] += count
    return {line: tuple(entry) for line, entry in lines.items()}


def _source_section(manifest: dict) -> str:
    program = manifest.get("program") or {}
    text = program.get("text")
    coverage = (manifest.get("report") or {}).get("coverage")
    if not text or not coverage:
        return ""
    lines = _line_counts(coverage)
    rendered = []
    for number, content in enumerate(text.splitlines(), start=1):
        entry = lines.get(number)
        if entry is None:
            cls, count = "", ""
        elif entry[1]:
            cls, count = "hit", f"{entry[2]}&times;"
        else:
            cls, count = "miss", "0"
        rendered.append(
            f'<span class="ln {cls}"><span class="no">{number}</span>'
            f'<span class="ct">{count}</span>{_esc(content) or " "}</span>'
        )
    name = program.get("path") or "program"
    return (
        f"<h2>Source coverage &mdash; <span class='mono'>{_esc(name)}</span></h2>"
        '<pre class="src">' + "".join(rendered) + "</pre>"
    )


def _profile_section(manifest: dict, top: int = 10) -> str:
    profile = (manifest.get("report") or {}).get("profile")
    if not profile:
        return ""
    out = ["<h2>Hot spots</h2>"]
    for key, title in [
        ("nodes", "CFG nodes"),
        ("operations", "Visible operations"),
        ("tosses", "Toss points"),
    ]:
        counter = profile.get(key) or {}
        if not counter:
            continue
        rows = [
            [f'<span class="mono">{_esc(name)}</span>', f"{count:,}"]
            for name, count in list(counter.items())[:top]
        ]
        out.append(f"<h3>{title}</h3>")
        out.append(_table([title.lower(), "count"], rows, numeric={1}))
    return "".join(out)


def _workers_section(manifest: dict) -> str:
    workers = (manifest.get("report") or {}).get("workers")
    if not workers:
        return ""
    rows = [
        [
            f'<span class="mono">{_esc(label)}</span>',
            _esc(info.get("leases", 0)),
            _esc(info.get("stolen_from", 0)),
            "yes" if info.get("alive", True) else "no",
        ]
        for label, info in sorted(workers.items())
    ]
    return "<h2>Workers</h2>" + _table(
        ["worker", "leases", "stolen from", "alive at exit"], rows, numeric={1, 2}
    )


def render_html(manifest: dict) -> str:
    """Render a ``run.json`` manifest dict as a self-contained HTML page.

    A dict of another shape raises :class:`ManifestFormatError` naming
    the bad entry (:func:`check_manifest`)."""
    check_manifest(manifest)
    meta = manifest.get("meta") or {}
    title = "repro run report"
    program = (manifest.get("program") or {}).get("path")
    if program:
        title += f" — {program}"
    sections = [
        _summary_section(manifest),
        _triage_section(manifest),
        _coverage_section(manifest),
        _source_section(manifest),
        _profile_section(manifest),
        _workers_section(manifest),
    ]
    version = meta.get("version") or (manifest.get("tool") or {}).get("version", "?")
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f"<body><h1>{_esc(title)}</h1>\n"
        + "\n".join(section for section in sections if section)
        + f"\n<footer>generated by repro {_esc(version)} from "
        f"manifest version {_esc(manifest.get('manifest_version', '?'))}"
        "</footer></body></html>\n"
    )


def write_report(manifest: dict, path: str | pathlib.Path) -> pathlib.Path:
    """Render ``manifest`` and write the HTML to ``path``."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_html(manifest))
    return out


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


class ManifestFormatError(FormatError):
    """A run manifest is not JSON or not of the shape
    :func:`render_html` reads.  The message names the JSON path of the
    bad entry (``$.report.stats: expected dict or null, got int``),
    after the file when the manifest was read from one."""


_MANIFEST = Shape(ManifestFormatError)
_NUMBER = (int, float)


def check_manifest(doc: Any) -> dict:
    """``doc``, if it is a run manifest :func:`render_html` can render;
    else a :class:`ManifestFormatError` naming the bad entry.

    Every key is optional, since a manifest records what its run
    produced, and an object may be ``null`` where the report treats it
    as absent.  Values the report only prints are not checked.
    """
    _MANIFEST.check(doc, (dict,), "$")
    for key in ("meta", "tool", "git", "host"):
        _object(doc, key, "$")
    _list(doc, "argv", (str,), "$")
    _MANIFEST.field(_object(doc, "program", "$"), "text", (str, NULL), "$.program", None)
    report = _object(doc, "report", "$")
    stats = _object(report, "stats", "$.report")
    _numbers(stats, ("states_per_second", "coverage_percent"), "$.report.stats", (*_NUMBER, NULL))
    _numbers(stats, ("wall_time",), "$.report.stats")
    _list(report, "triage", (dict,), "$.report")
    profile = _object(report, "profile", "$.report")
    for key in ("nodes", "operations", "tosses"):
        _counts(profile, key, "$.report.profile")
    _objects(report, "workers", "$.report")
    _check_coverage(_object(report, "coverage", "$.report"), "$.report.coverage")
    return doc


def load_manifest(path: str | pathlib.Path) -> dict:
    """Read and check a ``run.json`` manifest file; a malformed file
    raises :class:`ManifestFormatError` naming the file and the JSON
    path of the bad entry."""
    return _MANIFEST.read_json(path, check_manifest)


def _object(doc: dict, key: str, path: str) -> dict:
    """``doc[key]``, a JSON object; ``{}`` when absent or null."""
    return _MANIFEST.field(doc, key, (dict, NULL), path, None) or {}


def _objects(doc: dict, key: str, path: str, kinds: tuple = (dict, NULL)) -> dict:
    """``doc[key]``, a JSON object whose values are JSON objects."""
    table = _MANIFEST.field(doc, key, kinds, path, None) or {}
    for name, entry in table.items():
        _MANIFEST.check(entry, (dict,), f"{path}.{key}.{name}")
    return table


def _list(doc: dict, key: str, kinds: tuple, path: str) -> list:
    """``doc[key]``, a JSON list of ``kinds``; ``[]`` when absent or null."""
    entries = _MANIFEST.field(doc, key, (list, NULL), path, None) or []
    return _MANIFEST.items(entries, kinds, f"{path}.{key}")


def _numbers(doc: dict, keys: tuple[str, ...], path: str, kinds: tuple = _NUMBER) -> None:
    for key in keys:
        _MANIFEST.field(doc, key, kinds, path, None)


def _counts(doc: dict, key: str, path: str) -> None:
    """``doc[key]``, a JSON object of numbers; absent or null."""
    for name, count in _object(doc, key, path).items():
        _MANIFEST.check(count, _NUMBER, f"{path}.{key}.{name}")


def _check_coverage(coverage: dict, path: str) -> None:
    summary = _object(coverage, "summary", path)
    _MANIFEST.field(summary, "lines_missing", (list, NULL), f"{path}.summary", None)
    static = _object(coverage, "static", path)
    for name, proc in _objects(static, "procs", f"{path}.static").items():
        where = f"{path}.static.procs.{name}"
        for nid, info in _objects(proc, "nodes", where, (dict,)).items():
            _numbers(info, ("line",), f"{where}.nodes.{nid}")
    for name, info in _objects(coverage, "procs", path).items():
        where = f"{path}.procs.{name}"
        _numbers(info, ("nodes_total", "nodes_covered"), where)
        _MANIFEST.field(info, "unreached", (list, NULL), where, None)
    for name, info in _objects(coverage, "processes", path).items():
        where = f"{path}.processes.{name}"
        _numbers(info, ("nodes_total", "nodes_covered"), where)
        _list(info, "procs", (str,), where)
    for name, point in _objects(coverage, "toss_values", path).items():
        where = f"{path}.toss_values.{name}"
        for value in _object(point, "values", where):
            try:
                int(value)
            except ValueError:
                raise ManifestFormatError(
                    f"key {value!r} is not an integer", f"{where}.values"
                ) from None
        _MANIFEST.field(point, "missing", (list, NULL), where, None)
    _counts(coverage, "nodes", path)
