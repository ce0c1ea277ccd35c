#!/usr/bin/env python3
"""Benchmark of the strelmon monitor: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; strelmon is imported from its ``src/``.

Load model: an offline batch tool in a closed loop, one process, one thread,
one monitoring call at a time.  A repetition builds fresh inputs (timed as
set-up) and monitors the workload's whole formula set once (timed as
monitoring).  Repetitions cycle over four input instances derived from the
seed, so one run's medians average over instances rather than resting on
one draw; the run ends at the cycle boundary nearest to ``--seconds``.

A shared host's speed can drift by tens of percent over minutes, so
setup_s and monitor_s are reported in calibrated seconds: the median over
repetitions of (wall time / wall time of a fixed pure-Python calibration
loop run just before and just after the repetition), times 0.1 s.  They
equal wall time on a host where the loop takes 0.1 s; the wall medians are
printed beside them.

Every repetition's verdicts are checked: at the reference seed against the
digests recorded in ``references.json``, otherwise against the instance's
first repetition; the epidemic sweep must also be monotone in the radius.
At any seed the brute-force oracle re-derives the verdicts of a down-scaled
instance of the workload.  Checks run outside the timed regions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones (per repetition) and the tracing overhead; it fails if a span
expected on the workload never fires.  Human-readable lines with sample
counts come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

REFERENCE_SEED = 0
INSTANCES = 4  # distinct input instances per run, cycled
CALIBRATION_S = 0.1  # reported times assume the calibration loop takes this long


def _import_engine():
    """Put the checkout's src/ first on the path; refuse any other strelmon."""
    if not (SRC / "strelmon" / "__init__.py").is_file():
        sys.exit(f"error: no strelmon sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import strelmon

    if Path(strelmon.__file__).resolve().parent != SRC / "strelmon":
        sys.exit(f"error: imported strelmon from {strelmon.__file__}, not from {SRC}")


class Checks:
    """Counts checked operations and failed ones; a failure is reported on
    stderr with its cause."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {label} {detail}".rstrip(), file=sys.stderr)


def _same_signal(got, want, domain_name: str, tol: float = 1e-9) -> bool:
    """Equal at every breakpoint of either signal and at the midpoints."""
    if got.location_count != want.location_count:
        return False
    if (got.start, got.end_time) != (want.start, want.end_time):
        return False
    probes = sorted(set(got.step_times()) | set(want.step_times()))
    probes += [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    for loc in range(got.location_count):
        for t in probes:
            a, b = got.value_at(loc, t), want.value_at(loc, t)
            if a != b and (domain_name == "boolean" or abs(a - b) > tol):
                return False
    return True


def check_oracle(workload, seed: int, checks: Checks) -> None:
    from workloads import logic, monitor_mod, oracle

    cases = [
        (k, case) for k in range(INSTANCES)
        for case in workload.oracle_cases(instance_seed(seed, k))
    ]
    for k, (ctx, text, max_steps) in cases:
        label = f"{workload.name} oracle instance {k} {ctx.domain.name} {text!r}"
        try:
            formula = logic.parse(text)
            got = monitor_mod.monitor(ctx, formula)
            want = oracle.oracle_monitor(ctx, formula, max_steps=max_steps)
            checks.record(label, _same_signal(got, want, ctx.domain.name))
        except Exception:
            checks.record(label, False, traceback.format_exc())


def check_verdicts(workload, verdicts, expected, checks: Checks) -> None:
    """``expected`` holds (count, digest) per formula, or None to adopt these."""
    for i, (text, count, digest) in enumerate(verdicts):
        want = expected[i] if expected else None
        ok = want is None or (count, digest) == tuple(want)
        checks.record(f"{workload.name} verdict {text!r}", ok,
                      "" if ok else f"got count {count} digest {digest[:12]}, want {want}")
    for label, holds in workload.invariants(verdicts):
        checks.record(f"{workload.name} {label}", holds)


def load_references(workload_name: str, size: str) -> dict:
    """Recorded (count, digest) per formula, keyed by instance index."""
    with open(HERE / "references.json") as fh:
        refs = json.load(fh)
    entry = refs.get(f"{workload_name}/{size}", {"instances": []})
    return {
        k: [(row["count"], row["digest"]) for row in inst["verdicts"]]
        for k, inst in enumerate(entry["instances"])
    }


def instance_seed(seed: int, k: int) -> int:
    """Seed of the run's k-th input instance; runs at different seeds share none."""
    return seed * INSTANCES + k


def calibration_loop() -> int:
    """Fixed pure-Python work that calls no strelmon code: dict, tuple and set
    traffic, sorting and float arithmetic, like the monitor's inner loops.

    Its wall time tracks the host's current speed, which can drift by tens
    of percent over minutes; time metrics are reported in units of it.
    Changing this function rescales every time metric, so do not.
    """
    rng = random.Random(7)
    table = {}
    for i in range(40000):
        key = (rng.randrange(3000), i % 7)
        prev = table.get(key)
        table[key] = (prev[0] + 1, max(prev[1], i * 0.5)) if prev else (1, i * 0.5)
    ranked = sorted(table.items(), key=lambda kv: (kv[1][1], kv[0]))
    return len({a * 31 + b for (a, b), _ in ranked if a % 3 == b % 3})


def timed_calibration() -> float:
    t0 = perf_counter()
    calibration_loop()
    return perf_counter() - t0


def run_repetition(workload, params: dict, seed: int, workdir: str, tracer) -> tuple:
    """Fresh inputs, then the whole formula set once.

    Returns (set-up seconds, monitoring seconds, calibration seconds,
    verdicts), the calibration being the mean of one run of the loop just
    before and one just after; the inputs and outputs are released on return.
    """
    repdir = tempfile.mkdtemp(dir=workdir)
    try:
        gc.collect()
        cal_before = timed_calibration()
        try:
            if tracer:
                tracer.install()
            t0 = perf_counter()
            inst = workload.setup(seed, params, repdir)
            t1 = perf_counter()
            outputs = workload.run(inst)
            t2 = perf_counter()
        finally:
            if tracer:
                tracer.remove()
        cal = (cal_before + timed_calibration()) / 2
        return t1 - t0, t2 - t1, cal, workload.verdicts(inst, outputs)
    finally:
        shutil.rmtree(repdir, ignore_errors=True)


def measure(workload, size: str, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    """Cycle over the run's instances for about ``seconds``, in whole cycles
    (at least one); traced runs repeat each instance untraced, then traced."""
    from tracing import Tracer

    params = workload.sizes[size]
    checks = Checks()
    check_oracle(workload, seed, checks)
    expected = load_references(workload.name, size) if seed == REFERENCE_SEED else {}
    samples = {traced_rep: {"setup_s": [], "monitor_s": [], "calibration_s": []}
               for traced_rep in (False, True)}
    summaries = []
    cycle = INSTANCES * (2 if traced else 1)
    start = perf_counter()
    rep = 0
    while True:
        if rep and rep % cycle == 0:
            # stop at the cycle boundary nearest to the deadline
            now = perf_counter()
            if now + (now - start) / (rep // cycle) / 2 >= start + seconds:
                break
        k = (rep // 2 if traced else rep) % INSTANCES
        with_trace = traced and rep % 2 == 1
        tracer = Tracer() if with_trace else None
        rep += 1
        try:
            setup_s, monitor_s, cal, verdicts = run_repetition(
                workload, params, instance_seed(seed, k), workdir, tracer)
        except Exception:
            checks.record(f"{workload.name} instance {k}", False, traceback.format_exc())
            continue
        samples[with_trace]["setup_s"].append(setup_s)
        samples[with_trace]["monitor_s"].append(monitor_s)
        samples[with_trace]["calibration_s"].append(cal)
        if tracer:
            summaries.append(tracer.summary())
        check_verdicts(workload, verdicts, expected.get(k), checks)
        expected.setdefault(k, [(count, digest) for _, count, digest in verdicts])
    return {"checks": checks, "samples": samples, "summaries": summaries}


END_TO_END = {
    "setup_s": "s",
    "monitor_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "passed/attempted",
}


def calibrated(times: list, calibrations: list) -> float:
    """Median over repetitions of time / calibration, in seconds at a host
    speed where the calibration loop takes CALIBRATION_S."""
    return CALIBRATION_S * statistics.median(t / c for t, c in zip(times, calibrations))


def end_to_end_metrics(result: dict) -> tuple[dict, dict]:
    checks = result["checks"]
    untraced = result["samples"][False]
    cal = untraced["calibration_s"]
    values = {
        "setup_s": calibrated(untraced["setup_s"], cal),
        "monitor_s": calibrated(untraced["monitor_s"], cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (checks.attempted - checks.failed) / checks.attempted,
    }
    notes = {
        name: f"n={len(untraced[name])}, wall median {statistics.median(untraced[name]):.6f} s"
        for name in ("setup_s", "monitor_s")
    }
    notes["peak_rss_mb"] = "n=1"
    notes["pass_ratio"] = f"n={checks.attempted}"
    return values, notes


# Per-layer metrics: span self times, call counts and counters, each per
# traced repetition.
SELF_TIMES = {
    "scenarios.simulate_epidemic_s": "scenarios.simulate_epidemic",
    "scenarios.generate_manet_s": "scenarios.generate_manet",
    "space.save_model_s": "space.save_model",
    "signals.save_trace_s": "signals.save_trace",
    "space.load_model_s": "space.load_model",
    "signals.load_trace_s": "signals.load_trace",
    "cli.write_signal_csv_s": "cli.write_signal_csv",
    "cli.self_s": "cli",
    "logic.parse_s": "logic.parse",
    "logic.desugar_s": "logic.desugar",
    "monitor.bounded_reach_s": "monitor.bounded_reach",
    "monitor.unbounded_reach_s": "monitor.unbounded_reach",
    "monitor.escape_s": "monitor.escape",
    "space.min_distance_matrix_s": "space.min_distance_matrix",
    "space.check_strictly_positive_s": "space.check_strictly_positive",
    "monitor.until_s": "monitor.until",
    "monitor.since_s": "monitor.since",
    "monitor.self_s": "monitor",
}
CALL_COUNTS = {
    "monitor.bounded_reach.calls": "monitor.bounded_reach",
    "monitor.unbounded_reach.calls": "monitor.unbounded_reach",
    "monitor.escape.calls": "monitor.escape",
    "space.min_distance_matrix.calls": "space.min_distance_matrix",
    "monitor.until.calls": "monitor.until",
    "monitor.since.calls": "monitor.since",
}


def per_layer_metrics(workload, result: dict) -> dict:
    summaries = result["summaries"]
    if not summaries or not result["samples"][False]["monitor_s"]:
        sys.exit(f"error: no traced and untraced repetition pair of {workload.name} completed")
    fired = set().union(*(s["calls"] for s in summaries))
    missing = sorted(workload.expected_spans - fired)
    if missing:
        sys.exit(f"error: spans expected on {workload.name} never fired: {', '.join(missing)}")
    reps = len(summaries)

    def per_rep(fn) -> float:
        return sum(fn(s) for s in summaries) / reps

    out = {}
    for metric, span in SELF_TIMES.items():
        out[metric] = (per_rep(lambda s: s["self_s"].get(span, 0.0)), "s")
    for metric, span in CALL_COUNTS.items():
        out[metric] = (per_rep(lambda s: s["calls"].get(span, 0)), "count")
    out["logic.core_nodes"] = (float(workload.core_nodes()), "count")
    out["monitor.spatial_calls_per_snapshot"] = (
        per_rep(lambda s: s["spatial_calls"] / max(1, s["snapshot_pairs"])), "calls/snapshot")
    out["monitor.out_breakpoints"] = (per_rep(lambda s: s["out_breakpoints"]), "count")
    traced = statistics.median(result["samples"][True]["monitor_s"])
    untraced = statistics.median(result["samples"][False]["monitor_s"])
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a scaled-down instance, for the smoke test")
    args = parser.parse_args(argv)

    _import_engine()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workbase = ROOT / ".perfbench_work"
    workbase.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workbase)
    try:
        result = measure(workload, args.size, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workbase.rmdir()
        except OSError:
            pass  # another run still uses it
    checks = result["checks"]
    if not result["samples"][False]["monitor_s"]:
        sys.exit(f"error: no repetition of {workload.name} completed")

    if args.trace:
        metrics = per_layer_metrics(workload, result)
        note = f"mean of {len(result['summaries'])} traced repetitions"
        notes = {name: note for name in metrics}
    else:
        values, notes = end_to_end_metrics(result)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        cal = statistics.median(result["samples"][False]["calibration_s"])
        print(f"calibration loop median {cal:.6f} s; setup_s and monitor_s are "
              f"scaled to a host where it takes {CALIBRATION_S} s")
    print(f"workload {workload.name} size {args.size} seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit:16s} {notes[name]}")
    print(f"  {'fail_ratio':36s} {checks.failed}/{checks.attempted} failed/attempted checks")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
