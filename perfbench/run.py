#!/usr/bin/env python3
"""One benchmark for the simulated BlobSeer stack.

Run from the repository root:

    python3 perfbench/run.py --workload meta-write --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything above it is the readable report.

Each repetition runs in a fresh interpreter, so set-up time and peak
memory are those of a new process.  ``setup_s`` and ``run_s`` are wall
times scaled to a reference machine speed by calibration slices timed
beside them (see ``calibration.py``); the report also prints the
uncalibrated wall times.  Repetitions continue while another
is expected to end within ``--seconds`` (at least a minimum count), and
the report gives their medians.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: End-to-end metrics (name -> unit), reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_sim_s": "sim_s",
    "op_tail_sim_s": "sim_s",
    "op_mbps_sim": "MB/sim_s",
}
SIM_METRICS = ("op_p50_sim_s", "op_tail_sim_s", "op_mbps_sim")
MIN_REPS = 3
#: Calibration slices timed before and after set-up.
SETUP_SLICES = 3
MIN_TRACED_PAIRS = 2
MAX_REPS = 50
CHILD_TIMEOUT_S = 120


class RepFailed(RuntimeError):
    """A repetition's process crashed or printed no result."""


# -- one repetition (runs in its own process) ---------------------------------------
def repetition(workload_name: str, seed: int, trace: bool) -> dict:
    from calibration import CalibratedClock, calibrated, time_reference_slice
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    tracer = None
    if trace:
        from tracing import LayerTracer, install

        tracer = LayerTracer()
        install(tracer)
    slices = [time_reference_slice() for _ in range(SETUP_SLICES)]
    started = time.perf_counter()
    workload.setup(seed)
    setup_wall_s = time.perf_counter() - started
    slices += [time_reference_slice() for _ in range(SETUP_SLICES)]
    before = workload.counters()
    if tracer is not None:
        env = workload.env
        tracer.reset(sim_clock=lambda: env.now)
    if tracer is None:
        # The clock's slices would be charged to the traced layers, so
        # traced repetitions time the run uncalibrated.
        with CalibratedClock() as clock:
            workload.run()
        run_wall_s, run_s = clock.wall_s, clock.calibrated_s
    else:
        started = time.perf_counter()
        workload.run()
        run_wall_s = run_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = workload.counters()

    result = {
        "setup_s": calibrated(setup_wall_s, slices),
        "run_s": run_s,
        "setup_wall_s": setup_wall_s,
        "run_wall_s": run_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": workload.digest(),
        "sim": workload.end_to_end_sim(),
        "outcome": workload.outcome(),
        "violations": workload.violations(),
    }
    if tracer is not None:
        from layers import layer_metrics

        result["layers"] = layer_metrics(tracer, before, after,
                                         result["outcome"], run_wall_s)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload_name}.jsonl.gz"
        result["spans"] = tracer.write_spans(str(path))
        result["spans_path"] = str(path.relative_to(ROOT))
    return result


def spawn(workload: str, seed: int, trace: bool) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    command = [sys.executable, str(BENCH / "run.py"), "--repetition",
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} seed {seed}: no result after "
                        f"{CHILD_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{workload} seed {seed} exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


# -- aggregation -------------------------------------------------------------------
def _repeat(seconds: float, minimum: int, step) -> None:
    """Call *step* at least *minimum* times, then while another call is
    expected to end within *seconds* of the start."""
    started = time.perf_counter()
    count = 0
    while count < MAX_REPS:
        elapsed = time.perf_counter() - started
        if count >= minimum and elapsed * (count + 1) / count > seconds:
            break
        step()
        count += 1


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _common_problems(reps: list) -> list:
    problems = []
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {v}" for v in rep["violations"]]
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append(f"observables differ between repeats of one seed: "
                        f"{sorted(d[:12] for d in digests)}")
    sims = {json.dumps([rep["sim"], rep["outcome"]], sort_keys=True)
            for rep in reps}
    if len(sims) != 1:
        problems.append("simulated metrics differ between repeats of one seed")
    return problems


def _per_kind_names(workload: str, sim: dict) -> list:
    """The simulated figures under the per-operation-kind names."""
    from workloads import WORKLOADS

    kind = WORKLOADS[workload].op_kind
    n, pct = sim["op_samples"], sim["op_tail_pct"]
    tail = "p99" if pct >= 99 else f"p{pct:g}"
    attempted = sim["attempted"]
    return [
        (f"{kind}_p50_sim_s", sim["op_p50_sim_s"], f"n={n}"),
        (f"{kind}_{tail}_sim_s", sim["op_tail_sim_s"],
         f"n={n}, {n - round(n * pct / 100)} beyond"),
        (f"{kind}_mbps_sim", sim["op_mbps_sim"], "MB per simulated second"),
        ("op_fail_frac", sim["failed"] / attempted if attempted else 0.0,
         f"{sim['failed']} of {attempted}"),
    ]


def measure_untraced(workload: str, seed: int, seconds: float) -> dict:
    reps = []
    _repeat(seconds, MIN_REPS, lambda: reps.append(spawn(workload, seed, False)))
    problems = _common_problems(reps)

    sim = reps[0]["sim"]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    metrics.update({name: sim[name] for name in SIM_METRICS})

    print(f"{workload}  seed={seed}  untraced repetitions={len(reps)}")
    for name, unit in END_TO_END.items():
        note = ""
        if name in ("setup_s", "run_s", "peak_rss_mb"):
            values = sorted(r[name] for r in reps)
            note = f"median of {len(values)}: {' '.join(f'{v:.4g}' for v in values)}"
        print(f"  {name:<22} {metrics[name]:>12.6g} {unit:<9} {note}")
    for name in ("setup_wall_s", "run_wall_s"):
        values = sorted(r[name] for r in reps)
        print(f"  {name:<22} {statistics.median(values):>12.6g} s         "
              f"uncalibrated: {' '.join(f'{v:.4g}' for v in values)}")
    for name, value, note in _per_kind_names(workload, sim):
        print(f"  {name:<22} {value:>12.6g}           {note}")
    for name, value in reps[0]["outcome"].items():
        print(f"  {name:<22} {value:>12.6g}")
    print(f"  observables sha256 {reps[0]['digest'][:16]}... on every repeat")
    return {
        "problems": problems,
        "attempted": sum(r["sim"]["attempted"] for r in reps),
        "failed": sum(r["sim"]["failed"] for r in reps),
        "metrics": {name: _metric(metrics[name], unit)
                    for name, unit in END_TO_END.items()},
    }


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    from layers import PER_LAYER
    from tracing import self_test

    plain, traced = [], []

    def pair() -> None:
        plain.append(spawn(workload, seed, False))
        traced.append(spawn(workload, seed, True))

    _repeat(seconds, MIN_TRACED_PAIRS, pair)
    other = spawn(workload, seed + 1, False)
    problems = [f"tracer self-test: {f}" for f in self_test()]
    problems += _common_problems(plain + traced)
    problems += [f"rep at seed {seed + 1}: {v}" for v in other["violations"]]
    if other["digest"] == plain[0]["digest"]:
        problems.append(f"seeds {seed} and {seed + 1} gave identical observables")

    def is_wall(name: str) -> bool:
        return name.endswith("_s") and not name.endswith("_sim_s")

    values = {}
    for name in PER_LAYER:
        if name == "tracing.overhead_s":
            continue
        series = [rep["layers"][name] for rep in traced]
        if is_wall(name):
            values[name] = statistics.median(series)
        else:
            if len(set(series)) != 1:
                problems.append(f"{name} differs between traced repeats: {series}")
            values[name] = series[0]
    traced_run = statistics.median(r["run_wall_s"] for r in traced)
    plain_run = statistics.median(r["run_wall_s"] for r in plain)
    values["tracing.overhead_s"] = traced_run - plain_run

    print(f"{workload}  seed={seed}  traced repetitions={len(traced)}, "
          f"untraced={len(plain)}")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<40} {values[name]:>14.6g} {unit}")
    print(f"  run_wall_s traced {traced_run:.4f} s vs untraced {plain_run:.4f} s "
          f"(overhead {100 * (traced_run / plain_run - 1):.0f}%)")
    print(f"  traced observables equal untraced: "
          f"{len({r['digest'] for r in plain + traced}) == 1}; seed {seed + 1} "
          f"differs: {other['digest'] != plain[0]['digest']}")
    print(f"  {traced[-1]['spans']} spans in {traced[-1]['spans_path']}")
    return {
        "problems": problems,
        "attempted": sum(r["sim"]["attempted"] for r in plain + traced),
        "failed": sum(r["sim"]["failed"] for r in plain + traced),
        "metrics": {name: _metric(values[name], unit)
                    for name, unit in PER_LAYER.items()},
    }


# -- entry point -------------------------------------------------------------------
def _check_declaration() -> None:
    """The metric names here must be the ones BENCHMARK.json declares."""
    from layers import PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    actual = {"workloads": list(WORKLOADS), "end_to_end": END_TO_END,
              "per_layer": PER_LAYER}
    for key, value in actual.items():
        if declared[key] != value:
            raise SystemExit(f"BENCHMARK.json {key} does not match perfbench")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetition", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}/repro; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.repetition:
        print(json.dumps(repetition(args.workload, args.seed, bool(args.trace))))
        return 0

    _check_declaration()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(WORKLOADS, args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    measure = measure_traced if args.trace else measure_untraced
    try:
        result = measure(args.workload, args.seed, args.seconds)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def run_all(workloads, seed: int, seconds: float) -> int:
    """Every workload untraced then traced, with a closing summary."""
    summary = []
    for name in workloads:
        for measure in (measure_untraced, measure_traced):
            try:
                result = measure(name, seed, seconds)
            except RepFailed as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 1
            for problem in result["problems"]:
                print(f"  CHECK FAILED: {problem}")
            summary.append((name, measure.__name__, not result["problems"]))
            print()
    print("summary: " + ", ".join(
        f"{name} {kind.split('_')[1]} {'ok' if ok else 'FAILED'}"
        for name, kind, ok in summary))
    return 0 if all(ok for _n, _k, ok in summary) else 1


if __name__ == "__main__":
    sys.exit(main())
