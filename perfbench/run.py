"""Run one benchmark workload; the last line of stdout is the result as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload abr_adversary_train --seed 1 \\
        --seconds 20 --trace 0

The run builds the workload's inputs from ``--seed`` (timed several
times), checks the program's outputs before timing anything -- a failed
check exits 1 with the reasons on stderr -- and then repeats fixed units
of work for about ``--seconds``.  ``setup_s`` is the median input build
plus the median set-up inside a unit (building a trainer or a service).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics: self time per unit of work, counts, shares, and
``trace.overhead_frac`` (traced over untraced unit time, minus 1).  Its
spans go to ``perfbench/out/<workload>-seed<n>-spans.jsonl``; every run
writes its full result, with provenance, to ``perfbench/out/``.

Load comes from this one process; BLAS is pinned to one thread so the
process never runs more threads than the host has cores.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Before NumPy loads: one BLAS thread, and the checkout's code on the path.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402

#: Input builds timed before the checks.
SETUP_REPS = 5
MIN_UNITS = 2
#: How far the self times of all spans may stray from the root spans'
#: duration: a check of the Tracer's arithmetic (float rounding only).
#: How much of that time the layers cover is ``trace.unattributed_frac``.
SELF_TIME_TOLERANCE = 1e-6


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _time_setups(setup, seed: int) -> tuple[object, list[float]]:
    """Build the inputs SETUP_REPS times; the last state and each build's time."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        state = setup(seed)
        times.append(time.perf_counter() - start)
    return state, times


def _units(workload, state, seconds: float, tracer):
    """Repeat units -- untraced, or untraced/traced pairs with a tracer --
    for about ``seconds``."""
    plain, traced = [], []
    start = time.perf_counter()
    run_unit = workload.run_unit
    while True:
        plain.append(run_unit(state))
        if tracer is not None:
            traced.append(run_unit(state, tracer))
        rounds = len(plain)
        elapsed = time.perf_counter() - start
        enough = rounds >= (1 if tracer is not None else MIN_UNITS)
        # Stop where the next round would end further from ``seconds``.
        if enough and elapsed + elapsed / rounds / 2 >= seconds:
            return plain, traced


def _part_seconds(units, q: float) -> float:
    """A unit's time with each part at the q-th percentile of its samples.

    A slowdown of the host that spoils fewer than half of a part's samples
    does not move the part's median; parts are short, so a brief one
    spoils few of them.
    """
    return sum(harness.percentile([u.parts[name] for u in units], q) for name in units[0].parts)


def _latency_ms(units, q: float) -> float:
    """The q-th percentile of operation latency.

    When every unit holds enough samples for ten to lie beyond its own
    q-th percentile, it is the median over units of each unit's
    percentile, so one disturbed unit cannot move it; otherwise the
    samples of all units are pooled.  A workload without samples takes
    the whole unit as its operation (see :func:`_part_seconds`).
    """
    if not any(u.latencies_s for u in units):
        return _part_seconds(units, q) * 1e3
    if all(len(u.latencies_s) * (1 - q / 100) >= 10 for u in units):
        return harness.median([harness.percentile(u.latencies_s, q) for u in units]) * 1e3
    return harness.percentile([x for u in units for x in u.latencies_s], q) * 1e3


def _end_to_end(units, setup_times) -> dict:
    if len({u.ops for u in units}) != 1:
        raise RuntimeError("units of one run must do the same work")
    return {
        "ops_per_s": units[0].ops / _part_seconds(units, 50),
        "op_p50_ms": _latency_ms(units, 50),
        "op_p90_ms": _latency_ms(units, 90),
        "peak_rss_mb": harness.peak_rss_mb(),
        "setup_s": harness.median(setup_times) + harness.median([u.setup_s for u in units]),
    }


def _busy_s(tracer) -> float:
    """Traced wall time, less the time an event loop sat idle."""
    return tracer.total_s[harness.ROOT_SPAN] - tracer.self_s.get(harness.IDLE_SPAN, 0.0)


def _per_layer(workload, plain, traced, tracer, declared) -> dict:
    wall = tracer.total_s[harness.ROOT_SPAN]
    accounted = sum(tracer.self_s.values())
    if abs(accounted - wall) > SELF_TIME_TOLERANCE * wall:
        raise RuntimeError(f"self times sum to {accounted} s, traced wall is {wall} s")
    metrics = {name: 0.0 for name in declared}
    busy = _busy_s(tracer)
    produced = workload.layer_metrics(tracer, len(traced), busy)
    if set(produced) != set(workload.LAYER_METRICS):
        raise RuntimeError(f"layer metrics {sorted(produced)} != {workload.LAYER_METRICS}")
    metrics.update(produced)
    covered = sum(tracer.self_s[name] for name in workload.LAYER_SPANS)
    metrics["trace.unattributed_frac"] = (busy - covered) / busy
    metrics["trace.overhead_frac"] = (
        harness.median([u.wall_s for u in traced]) / harness.median([u.wall_s for u in plain])
        - 1.0
    )
    return metrics


def _report(args, prov, units, n_traced, metrics, units_of, workload, tracer) -> list[str]:
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}",
             "provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()),
             "units: " + ", ".join(f"{u.wall_s:.3f}s" for u in units)]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    lines.append(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for name, value in metrics.items():
        alias = workload.ALIASES.get(name) if args.trace == 0 else None
        note = f"  ({alias})" if alias else ""
        if args.trace == 0 and name.startswith("op_p"):
            n = sum(len(u.latencies_s) for u in units)
            note += f"  n={n}" if n else f"  n={len(units)} units"
        lines.append(f"{name} = {value:.6g} {units_of[name]}{note}")
    if args.trace == 0:
        lines.append(f"op_p99_ms = {_latency_ms(units, 99):.6g} ms  (reported, not "
                     "gated: on a shared host its run-to-run spread is too wide for a bound)")
    for key in sorted({k for u in units for k in u.extra}):
        value = harness.median([u.extra[key] for u in units])
        lines.append(f"{key} = {value:.6g}  (median of units)")
    if tracer is not None:
        wall = tracer.total_s[harness.ROOT_SPAN]
        idle = tracer.self_s.get(harness.IDLE_SPAN, 0.0)
        lines.append(f"traced wall {wall:.3f} s, of it idle {idle:.3f} s; spans in no "
                     "per-layer metric: " + ", ".join(
                         sorted(set(tracer.self_s) - set(workload.LAYER_SPANS)
                                - {harness.IDLE_SPAN})))
        lines.append("self time per traced unit, by span:")
        for name, t in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:28s} {t / n_traced:10.4f} s  {t / wall:7.2%}  "
                         f"calls={tracer.calls[name]}")
        for label, (value, before) in workload.shares(tracer, _busy_s(tracer)).items():
            lines.append(f"{label}: {value:.3f} (earlier figure on another host: {before})")
    for u in units:
        lines.extend(f"FAILED: {msg}" for msg in u.failures)
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from perfbench.workloads import MODULES, load

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in MODULES:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(MODULES)}",
              file=sys.stderr)
        return 2
    workload = load(args.workload)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units_of = {m["name"]: m["unit"] for m in declared}

    state, setup_times = _time_setups(workload.setup, args.seed)

    failures = workload.check(state)
    if failures:
        print(f"perfbench: {args.workload} seed {args.seed}: correctness check failed:",
              file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    # The inputs and check outputs live for the whole run; keep the
    # collector from rescanning them during timed units.
    gc.collect()
    gc.freeze()

    tracer = harness.Tracer() if args.trace else None
    plain, traced = _units(workload, state, args.seconds, tracer)
    units = plain + traced
    if tracer is not None:
        metrics = _per_layer(workload, plain, traced, tracer, units_of)
    else:
        metrics = _end_to_end(plain, setup_times)
    if set(metrics) != set(units_of):
        raise RuntimeError(f"metrics {sorted(metrics)} != declared {sorted(units_of)}")

    prov = harness.provenance(ROOT, args.workload, args.seed)
    for line in _report(args, prov, units, len(traced), metrics, units_of, workload, tracer):
        print(line)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps({
        **result, "provenance": prov, "seconds": args.seconds,
        "setup_times_s": setup_times,
        "units": [{"wall_s": u.wall_s, "setup_s": u.setup_s, "ops": u.ops, "parts": u.parts,
                   "latency_ms": {f"p{q}": harness.percentile(u.latencies_s, q) * 1e3
                                  for q in (50, 90, 99)} if u.latencies_s else {},
                   "attempted": u.attempted, "failed": u.failed, "extra": u.extra}
                  for u in units],
    }, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl", prov)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
