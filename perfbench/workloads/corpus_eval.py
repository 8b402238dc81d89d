"""corpus_eval: a cold evaluation of an ABR trace corpus and the CC matrix.

Cache off, in-process serial runner, in two parts:

- ``evaluate_protocols`` over 128 traces (64 broadband-like, 64 3G-like)
  x {bb, bola, mpc, pensieve-demo} at ``batch_size=64``,
  ``chunk_indexed=True``.  MPC's plan scan dominates this part.
- ``run_cc_matrix``: the 35 multi-flow tasks at a reduced interval
  count, on ``MultiFlowEmulator`` with one and two flows.

No PPO and no ``r_opt`` run here.  A unit is one pass over both parts,
made of one ``evaluate_protocols`` call per protocol and trace kind and
one ``run_cc_matrix`` call per protocol, each timed.  The operation is
one evaluated cell (a session or a matrix task); its latency is taken as
a whole pass -- what a user waiting for the corpus sees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.abr.batched import (
    BatchedAbrPolicy,
    BatchedBola,
    BatchedBufferBased,
    BatchedMPC,
    BatchedPensieve,
)
from repro.abr.protocols.bola import Bola
from repro.abr.protocols.buffer_based import BufferBased
from repro.abr.protocols.mpc import MPC
from repro.abr.simulator import StreamingSession
from repro.abr.video import Video
from repro.cc import matrix as cc_matrix
from repro.cc.multiflow import MultiFlowEmulator
from repro.experiments.abr_suite import evaluate_protocols
from repro.serve.service import make_demo_pensieve
from repro.traces.synthetic import make_dataset

from perfbench import checks
from perfbench.harness import Tracer
from perfbench.workloads.common import Unit, measured, packet_counting, sender_points

TRACES_PER_KIND = 64
BATCH_SIZE = 64
MATRIX_INTERVALS = 200
#: Traces of each kind replayed serially for the serial == batched check.
SERIAL_SUBSET = 4

ALIASES = {"ops_per_s": "cells_per_s", "op_p50_ms": "corpus_pass_p50_ms",
           "op_p90_ms": "corpus_pass_p90_ms"}

LAYER_METRICS = (
    "eval.bb_s", "eval.bola_s", "eval.mpc_s", "eval.pensieve_s", "eval.select_s",
    "eval.sim_s", "eval.sessions_per_s", "eval.mpc_share",
    "matrix.emulator_s", "matrix.sender_s", "matrix.packets_sent", "matrix.tasks_per_s",
)
#: Spans whose self time the metrics above report (``eval.<protocol>_s``
#: are inclusive).  The matrix's own bookkeeping, in ``matrix`` and
#: ``matrix.task``, is in none.
LAYER_SPANS = ("eval.bb", "eval.bola", "eval.mpc", "eval.pensieve", "eval.select",
               "eval.sim", "matrix.emulator", "matrix.sender")


@dataclass
class State:
    seed: int
    video: Video
    traces: list
    protocols: dict
    #: The checked pass's outputs; every timed pass must reproduce them.
    reference: tuple | None = None


def setup(seed: int) -> State:
    video = Video.synthetic(n_chunks=48, seed=seed)
    traces = (make_dataset("broadband", TRACES_PER_KIND, seed=seed)
              + make_dataset("3g", TRACES_PER_KIND, seed=seed + 1))
    protocols = {
        "bb": BufferBased(),
        "bola": Bola(),
        "mpc": MPC(robust=False),
        "pensieve": make_demo_pensieve(),
    }
    return State(seed, video, traces, protocols)


def _evaluate(state: State, traces, batch_size: int, tracer: Tracer | None = None,
              parts: dict | None = None) -> dict:
    """Per-trace QoE of every protocol, one ``evaluate_protocols`` call per
    protocol and trace kind (timed into ``parts``)."""
    kinds = {"broadband": traces[:len(traces) // 2], "3g": traces[len(traces) // 2:]}
    qoe = {}
    for name, policy in state.protocols.items():
        if tracer is not None:
            tracer.begin(f"eval.{name}")
        qoe[name] = []
        for kind, subset in kinds.items():
            start = time.perf_counter()
            qoe[name] += evaluate_protocols(
                state.video, subset, {name: policy}, chunk_indexed=True,
                workers=0, cache=False, batch_size=batch_size,
            )[name]
            if parts is not None:
                parts[f"eval.{name}.{kind}"] = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
    return qoe


def _matrix(state: State, tracer: Tracer | None = None, parts: dict | None = None) -> list:
    """Every matrix task's cell, one ``run_cc_matrix`` call per protocol
    (its 7 tasks; timed into ``parts``)."""
    if tracer is not None:
        tracer.begin("matrix")
    cells = []
    for protocol in cc_matrix.PROTOCOLS:
        start = time.perf_counter()
        result = cc_matrix.run_cc_matrix(
            [protocol], n_intervals=MATRIX_INTERVALS, seed=state.seed, workers=0, cache=False
        )
        if parts is not None:
            parts[f"matrix.{protocol}"] = time.perf_counter() - start
        # Every task once: the plain cells plus each adversarial variant.
        cells += [c for c in result.cells if c.scenario != "adversarial"]
        cells += result.adversarial_variants
    if tracer is not None:
        tracer.end()
    return cells


def _outputs(qoe: dict, cells: list) -> tuple:
    return (tuple((name, tuple(float(v).hex() for v in values)) for name, values in qoe.items()),
            tuple(repr(cell) for cell in cells))


def check(state: State) -> list[str]:
    qoe = _evaluate(state, state.traces, BATCH_SIZE)
    cells = _matrix(state)
    indices = list(range(SERIAL_SUBSET)) + [
        TRACES_PER_KIND + i for i in range(SERIAL_SUBSET)
    ]
    serial = _evaluate(state, [state.traces[i] for i in indices], 0)
    failures = checks.compare_qoe(qoe, serial, indices)
    failures += checks.check_qoe_finite(qoe) + checks.check_matrix(cells)
    state.reference = _outputs(qoe, cells)
    return failures


def _adapter_points() -> list[tuple]:
    points = [(BatchedAbrPolicy, "observe_round", "eval.select", False)]
    for cls in (BatchedBufferBased, BatchedBola, BatchedMPC, BatchedPensieve):
        for method in ("start", "select", "observe_round"):
            if method in vars(cls):
                points.append((cls, method, "eval.select", False))
    return points


def run_unit(state: State, tracer: Tracer | None = None) -> Unit:
    points = _adapter_points() + [
        (StreamingSession, "download_chunk", "eval.sim", True),
        (cc_matrix, "run_matrix_task", "matrix.task", False),
    ] + sender_points(cc_matrix.PROTOCOLS.values(), "matrix.sender")
    patches = []
    if tracer is not None:
        patches = [(MultiFlowEmulator, "run_interval",
                    packet_counting(tracer, "matrix.emulator", "matrix"))]
    parts: dict[str, float] = {}
    with measured(tracer, points, patches) as box:
        qoe = _evaluate(state, state.traces, BATCH_SIZE, tracer, parts)
        cells = _matrix(state, tracer, parts)
    bad = checks.check_qoe_finite(qoe) + checks.check_matrix(cells)
    if _outputs(qoe, cells) != state.reference:
        bad.append("a pass differs from the checked pass")
    sessions = sum(len(v) for v in qoe.values())
    abr_s = sum(t for k, t in parts.items() if k.startswith("eval."))
    extra = {"abr_sessions_per_s": sessions / abr_s,
             "matrix_tasks_per_s": len(cells) / (sum(parts.values()) - abr_s)}
    cells_done = sessions + len(cells)
    return Unit(box["wall_s"], cells_done, parts, [], cells_done, len(bad), bad, extra)


def layer_metrics(tracer: Tracer, n_units: int, wall_s: float) -> dict:
    per_protocol = {name: tracer.total_s[f"eval.{name}"] for name in
                    ("bb", "bola", "mpc", "pensieve")}
    sessions = 4 * 2 * TRACES_PER_KIND * n_units
    return {
        **{f"eval.{name}_s": t / n_units for name, t in per_protocol.items()},
        "eval.select_s": tracer.self_s["eval.select"] / n_units,
        "eval.sim_s": tracer.self_s["eval.sim"] / n_units,
        "eval.sessions_per_s": sessions / sum(per_protocol.values()),
        "eval.mpc_share": per_protocol["mpc"] / wall_s,
        "matrix.emulator_s": tracer.self_s["matrix.emulator"] / n_units,
        "matrix.sender_s": tracer.self_s["matrix.sender"] / n_units,
        "matrix.packets_sent": tracer.counts["matrix.packets_sent"] / n_units,
        "matrix.tasks_per_s": tracer.calls["matrix.task"] / tracer.total_s["matrix"],
    }


def shares(tracer: Tracer, wall_s: float) -> dict:
    """Where the time went, beside earlier measurements on another host."""
    abr = sum(tracer.total_s[f"eval.{n}"] for n in ("bb", "bola", "mpc", "pensieve"))
    emulator = tracer.self_s["matrix.emulator"] + tracer.self_s["matrix.sender"]
    return {
        "MPC share of the ABR part": (tracer.total_s["eval.mpc"] / abr, "about 0.90"),
        "emulator + sender share of the matrix part":
            (emulator / tracer.total_s["matrix"], "not measured before"),
    }
