"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search-5ess --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (median of fresh set-ups, source text to runnable closed
system), ``verdict_s`` (median of complete operations run back to back
for ``--seconds``) and ``peak_rss_mb`` (this process's peak resident
memory).  Both times are given in seconds of the reference machine:
each sample is corrected by the calibration kernel timed next to it
(see ``perfbench/calibrate.py``).  ``--trace 1`` runs the traced
per-layer report instead (see
``perfbench/layers.py``).  ``--smoke`` shrinks every bound so a run
takes seconds.

Every operation's answer is checked against ``perfbench/pinned.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the samples,
spans and provenance go to ``perfbench/out/``.  The program is run
from the sources under ``src/`` next to this directory; without them
the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

END_TO_END = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}
#: verdict_s is a median; take at least this many operations per run.
MIN_OPERATIONS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny bounds")
    return parser.parse_args(argv)


def provenance(args, samples: dict) -> dict:
    commit = dirty = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and pathlib.Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            )
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": commit,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "samples": samples,
    }


def _timed(fn, *args):
    gc.collect()
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def measure(workload, inputs, tally, args):
    """The end-to-end metrics, tracing off.  Returns (metrics, raw wall
    samples)."""
    from perfbench import workloads as W
    from perfbench.calibrate import calibrate, corrected

    pinned_setup, pinned = W.expected(workload.name, args.smoke, args.seed)
    # One untimed set-up and operation first, so that lazy set-up in the
    # program and the interpreter is done before timing starts.
    tally.check(workload.answers(workload.operate(inputs, workload.setup(inputs))),
                pinned, workload.name)
    # Set-ups are interleaved with the operations, so that both medians
    # are taken over the same stretch of time; each iteration times the
    # calibration kernel between them, and corrects every sample by it.
    raw = {"setup_s": [], "verdict_s": [], "calibrate_s": []}
    reported = {"setup_s": [], "verdict_s": []}
    deadline = time.perf_counter() + args.seconds
    while len(raw["verdict_s"]) < (1 if args.smoke else MIN_OPERATIONS) or time.perf_counter() < deadline:
        setups = []
        for _ in range(workload.setup_batch):
            operand, elapsed = _timed(workload.setup, inputs)
            setups.append(elapsed)
            tally.check(W.closed_answers(operand), pinned_setup, "set-up")
        _, speed = _timed(calibrate)
        result, elapsed = _timed(workload.operate, inputs, operand)
        tally.check(workload.answers(result), pinned, workload.name)
        del result
        raw["setup_s"].extend(setups)
        raw["verdict_s"].append(elapsed)
        raw["calibrate_s"].append(speed)
        reported["setup_s"].extend(corrected("setup_s", s, speed) for s in setups)
        reported["verdict_s"].append(corrected("verdict_s", elapsed, speed))

    metrics = {name: statistics.median(times) for name, times in reported.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import calibrate, layers
    from perfbench import workloads as W

    workload = W.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = workload.prepare(args.smoke, args.seed)
    tally = W.Tally()
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        values, spans, lines = layers.traced_run(workload, inputs, tally, args.seed, args.smoke)
        units = {name: unit for name, (unit, _) in layers.LAYER_METRICS.items()}
        lines = lines + layers.report_lines(values)
        samples = {"spans": len(spans.records)}
        extra = {"spans": spans.records}
        suffix = "traced"
    else:
        values, raw = measure(workload, inputs, tally, args)
        units = END_TO_END
        samples = {name: len(times) for name, times in raw.items()}
        lines = [
            f"  {name:<12} {values[name]:>12.6g} {unit}"
            + (f"  (median of {samples[name]}; raw wall median "
               f"{statistics.median(raw[name]):.6g} s)" if name in raw else "")
            for name, unit in units.items()
        ]
        lines.append(f"  calibration  {statistics.median(raw['calibrate_s']):>12.6g} s"
                     f"  (median of {samples['calibrate_s']}; reference "
                     f"{calibrate.REFERENCE_S} s)")
        extra = {"samples_s": raw}
        suffix = "e2e"

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    meta = provenance(args, samples)
    out_file = OUT_DIR / f"{args.workload}-{suffix}.json"
    out_file.write_text(json.dumps({"provenance": meta, "result": result, **extra}, indent=1))
    print(f"{args.workload} ({'traced' if args.trace else 'end to end'}):")
    print("\n".join(lines))
    print(f"provenance: {json.dumps(meta)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
