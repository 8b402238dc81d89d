"""decision_serve: one coalesced DecisionService driven in process.

One ``DecisionService`` (batch 64) behind ``InprocTransport``.  Players
alternate between the 1024x512 Pensieve head on the binary codec and MPC
on the JSON codec, so one serving path handles two codecs and two
adapter kinds.  Each player runs a real client ``StreamingSession`` and
applies every decision, so the load generator's client-side simulation
shares this process and is traced as its own layer.  This is the only
workload that runs ``repro.serve``.

A unit is two phases on a fresh service:

- closed loop: :data:`PLAYERS` players each play one whole video,
  waiting for every reply as a DASH client does -- the throughput phase;
- open loop: :data:`OPEN_SESSIONS` sessions whose requests fall due at
  :data:`OPEN_RATE` per second in total, well under capacity -- the
  latency phase.  Latency counts from when a request was due, so a
  stall also charges the requests queued behind it; how late the
  generator itself ran is recorded too.

A request fails when it is answered with an error, or with a decision
that differs from the inline ``run_session`` replay of its trace.
"""

from __future__ import annotations

import asyncio
import copy
import selectors
import time
from dataclasses import dataclass

from repro.abr.protocols.base import run_session
from repro.abr.protocols.mpc import MPC
from repro.abr.simulator import ChunkIndexedBandwidth, StreamingSession
from repro.abr.video import Video
from repro.serve import service as serve_service
from repro.serve.loadgen import InprocTransport
from repro.serve.protocol import (
    CONTENT_BINARY,
    CONTENT_JSON,
    DecisionRequest,
    decode_response,
    encode_request,
)
from repro.serve.service import DecisionService, make_demo_pensieve
from repro.traces.synthetic import make_dataset

from perfbench import checks
from perfbench.harness import IDLE_SPAN, Tracer, percentile
from perfbench.workloads.common import Unit, measured

BATCH_SIZE = 64
PLAYERS = 64
OPEN_SESSIONS = 12
#: Offered load of the open loop, requests per second.
OPEN_RATE = 150.0
TRACES_PER_KIND = 4
#: (protocol, codec) by player parity.
MIX = (("pensieve", CONTENT_BINARY), ("mpc", CONTENT_JSON))

ALIASES = {"ops_per_s": "decisions_per_s", "op_p50_ms": "decision_p50_ms",
           "op_p90_ms": "decision_p90_ms"}

#: The owner of the event loop's blocking ``select``, as asyncio uses it.
_IDLE_SELECTOR = next(c for c in selectors.DefaultSelector.__mro__ if "select" in vars(c))

LAYER_METRICS = (
    "serve.decode_s", "serve.encode_s", "serve.pensieve_eval_s", "serve.mpc_eval_s",
    "serve.session_s",
    "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms", "serve.window_occupancy",
    "serve.windows", "serve.client_s", "serve.gen_lag_ms",
)
#: Spans whose self time the metrics above report.
LAYER_SPANS = ("serve.decode", "serve.encode", "serve.eval.pensieve", "serve.eval.mpc",
               "serve.window", "serve.client")


@dataclass
class State:
    seed: int
    video: Video
    traces: list
    protocols: dict
    #: Inline decisions per (protocol, trace index), filled by check().
    reference: dict | None = None


def setup(seed: int) -> State:
    video = Video.synthetic(n_chunks=48, seed=seed)
    traces = (make_dataset("broadband", TRACES_PER_KIND, seed=seed)
              + make_dataset("3g", TRACES_PER_KIND, seed=seed + 1))
    protocols = {"pensieve": make_demo_pensieve(hidden=(1024, 512)),
                 "mpc": MPC(robust=False)}
    return State(seed, video, traces, protocols)


def _service(state: State) -> DecisionService:
    return DecisionService(state.video, state.protocols, batch_size=BATCH_SIZE)


class _Load:
    """Everything one unit's players record."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.decisions: dict[tuple[str, int], list[list[int]]] = {}
        self.requests = 0
        self.errors = 0
        self.latencies: list[float] = []
        self.lags: list[float] = []


async def _play(transport, load: _Load, sid: str, player: int, video: Video,
                traces: list, due: list[float] | None = None) -> None:
    """One session through the whole video; ``due`` makes it open-loop."""
    protocol, ctype = MIX[player % 2]
    trace_index = (player // 2) % len(traces)
    session = StreamingSession(
        video, ChunkIndexedBandwidth(traces[trace_index].bandwidths_mbps, cycle=True)
    )
    tracer = load.tracer
    decisions: list[int] = []
    load.decisions.setdefault((protocol, trace_index), []).append(decisions)
    k = 0
    while not session.done:
        if due is not None:
            wait = due[k] - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            load.lags.append(max(0.0, time.perf_counter() - due[k]))
        if tracer is not None:
            tracer.begin("serve.client")
        request = DecisionRequest(session=sid, observation=session.observation(),
                                  protocol=protocol if k == 0 else None)
        body = encode_request(request, ctype)
        if tracer is not None:
            tracer.end()
        load.requests += 1
        status, payload = await transport.request(body, ctype)
        if due is not None:
            load.latencies.append(time.perf_counter() - due[k])
        if status != 200:
            load.errors += 1
            return
        if tracer is not None:
            tracer.begin("serve.client")
        quality = decode_response(payload, ctype).quality
        decisions.append(quality)
        session.download_chunk(quality)
        if tracer is not None:
            tracer.end()
        k += 1


async def _closed_loop(transport, load: _Load, state: State, tag: str) -> float:
    start = time.perf_counter()
    await asyncio.gather(*(
        _play(transport, load, f"{tag}-c{p}", p, state.video, state.traces)
        for p in range(PLAYERS)
    ))
    return time.perf_counter() - start


async def _open_loop(transport, load: _Load, state: State, tag: str) -> None:
    n = state.video.n_chunks
    t0 = time.perf_counter() + 0.005
    await asyncio.gather(*(
        _play(transport, load, f"{tag}-o{j}", j, state.video, state.traces,
              due=[t0 + (j + k * OPEN_SESSIONS) / OPEN_RATE for k in range(n)])
        for j in range(OPEN_SESSIONS)
    ))


def _reference(state: State) -> dict:
    return {
        (name, i): [int(q) for q in run_session(
            state.video, trace, copy.deepcopy(policy), chunk_indexed=True).qualities]
        for name, policy in state.protocols.items()
        for i, trace in enumerate(state.traces)
    }


def _mismatches(load: _Load, reference: dict) -> int:
    return sum(
        checks.count_mismatches(got, reference[key])
        for key, sessions in load.decisions.items()
        for got in sessions
    )


async def _unit(state: State, load: _Load, tag: str) -> tuple[float, float]:
    """Set-up time (building and starting the service) and closed-loop time."""
    start = time.perf_counter()
    service = _service(state)
    transport = InprocTransport(service)
    await service.start()
    setup_s = time.perf_counter() - start
    try:
        if load.tracer is not None:
            load.tracer.begin("bench.closed_loop")
        closed_s = await _closed_loop(transport, load, state, tag)
        if load.tracer is not None:
            load.tracer.end()
            load.tracer.begin("bench.open_loop")
        await _open_loop(transport, load, state, tag)
        if load.tracer is not None:
            load.tracer.end()
    finally:
        await service.close()
    return setup_s, closed_s


async def _checked_loop(state: State, load: _Load) -> None:
    service = _service(state)
    await service.start()
    try:
        await _closed_loop(InprocTransport(service), load, state, "check")
    finally:
        await service.close()


def check(state: State) -> list[str]:
    """Every player's decisions against the inline replay (closed loop;
    the open loop plays the same sessions through the same code)."""
    state.reference = _reference(state)
    load = _Load(None)
    asyncio.run(_checked_loop(state, load))
    failures = []
    mismatches = _mismatches(load, state.reference)
    if mismatches or load.errors:
        failures.append(f"{mismatches} decisions differ from the inline replay, "
                        f"{load.errors} error responses")
    return failures


def _server_patches(tracer: Tracer) -> list[tuple]:
    """Codec spans, per-protocol evaluation spans, windows and queue waits."""
    enqueued: dict[int, float] = {}
    clock = tracer.clock

    def decide(original):
        async def timed_decide(self, request):
            enqueued[id(request)] = clock()
            return await original(self, request)
        return timed_decide

    def process_window(original):
        timed = tracer.wrap(original, "serve.window")

        def window(self, batch):
            now = clock()
            for request in batch:
                tracer.sample("serve.queue_wait", now - enqueued.pop(id(request), now))
            tracer.count("serve.window_items", len(batch))
            return timed(self, batch)
        return window

    def serve_group(original):
        def group_span(self, group, entries, out):
            tracer.begin(f"serve.eval.{group.name}")
            try:
                return original(self, group, entries, out)
            finally:
                tracer.end()
        return group_span

    return [
        (DecisionService, "decide", decide),
        (DecisionService, "_process_window", process_window),
        (DecisionService, "_serve_group", serve_group),
    ]


def run_unit(state: State, tracer: Tracer | None = None) -> Unit:
    load = _Load(tracer)
    points = [
        (serve_service, "decode_request", "serve.decode", False),
        (serve_service, "encode_response", "serve.encode", False),
        # The event loop blocks here when no task is ready: idle time.
        (_IDLE_SELECTOR, "select", IDLE_SPAN, True),
    ]
    patches = _server_patches(tracer) if tracer is not None else []
    with measured(tracer, points, patches) as box:
        setup_s, closed_s = asyncio.run(_unit(state, load, "unit"))
    failed = load.errors + _mismatches(load, state.reference)
    failures = [f"{failed} failed requests"] if failed else []
    if tracer is not None:
        tracer.samples["serve.gen_lag"].extend(load.lags)
    decisions = PLAYERS * state.video.n_chunks
    extra = {"gen_lag_p99_ms": percentile(load.lags, 99) * 1e3}
    return Unit(box["wall_s"], decisions, {"closed_loop": closed_s}, load.latencies,
                load.requests, failed, failures, extra, setup_s)


def layer_metrics(tracer: Tracer, n_units: int, wall_s: float) -> dict:
    waits = tracer.samples["serve.queue_wait"]
    windows = tracer.calls["serve.window"]
    return {
        "serve.decode_s": tracer.self_s["serve.decode"] / n_units,
        "serve.encode_s": tracer.self_s["serve.encode"] / n_units,
        "serve.pensieve_eval_s": tracer.self_s["serve.eval.pensieve"] / n_units,
        "serve.mpc_eval_s": tracer.self_s["serve.eval.mpc"] / n_units,
        "serve.session_s": tracer.self_s["serve.window"] / n_units,
        "serve.queue_wait_p50_ms": percentile(waits, 50) * 1e3,
        "serve.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
        "serve.window_occupancy": tracer.counts["serve.window_items"] / windows,
        "serve.windows": windows / n_units,
        "serve.client_s": tracer.self_s["serve.client"] / n_units,
        "serve.gen_lag_ms": percentile(tracer.samples["serve.gen_lag"], 99) * 1e3,
    }


def shares(tracer: Tracer, wall_s: float) -> dict:
    """Where the time went, beside earlier measurements on another host."""
    evals = tracer.self_s["serve.eval.pensieve"] + tracer.self_s["serve.eval.mpc"]
    return {
        "MPC share of batch evaluation":
            (tracer.self_s["serve.eval.mpc"] / evals if evals else 0.0, "not measured before"),
    }
