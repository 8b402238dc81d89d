"""Command-line interface: train adversaries, generate traces, evaluate.

Usage examples::

    python -m repro.cli train-abr-adversary --target mpc --steps 50000 \
        --out adv_mpc.npz --traces-out anti_mpc.jsonl --n-traces 50
    python -m repro.cli evaluate-abr --traces anti_mpc.jsonl --chunk-indexed
    python -m repro.cli train-cc-adversary --steps 150000 \
        --traces-out anti_bbr.jsonl --n-traces 5
    python -m repro.cli evaluate-cc --traces anti_bbr.jsonl --sender bbr
    python -m repro.cli eval-cc-matrix --workers 4 --cache-dir .cache/matrix \
        --out results/cc_matrix.txt
    python -m repro.cli attack-abr --attack pgd --eps 0.05 --pgd-steps 10 \
        --verify --summary-out attack.json
    python -m repro.cli make-dataset --kind 3g --count 50 --out corpus.jsonl
    python -m repro.cli serve --port 8008 --batch-size 64
    python -m repro.cli loadgen --port 8008 --protocol pensieve \
        --players 1000 --codec binary --verify

Every command accepts ``--log-dir`` (default ``$REPRO_LOG_DIR``): when
set, the run writes a ``manifest.json`` (command, config, seed entropy,
version, git SHA) plus a ``metrics.jsonl`` event log -- per-update PPO
diagnostics for the training commands, evaluation/cache telemetry for
the rest.  ``--quiet`` suppresses progress chatter while keeping result
tables.  Neither flag changes any computed result.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from contextlib import contextmanager

import numpy as np

from repro.abr.batched import resolve_batch_size
from repro.abr.protocols import MPC, BufferBased, RateBased
from repro.abr.video import Video
from repro.adversary.abr_env import train_abr_adversary
from repro.adversary.cc_env import train_cc_adversary
from repro.adversary.generation import generate_abr_traces, generate_cc_traces
from repro.analysis import format_table
from repro.cc import BBRSender, CubicSender, RenoSender
from repro.cc.matrix import PROTOCOLS as MATRIX_PROTOCOLS
from repro.cc.matrix import format_matrix
from repro.cc.metrics import run_sender_on_traces
from repro.exec import ResultCache, resolve_workers
from repro.experiments.abr_suite import evaluate_protocols
from repro.experiments.cc_suite import run_cc_scenario_matrix
from repro.obs import (
    Console,
    LOG_DIR_ENV,
    MetricsRecorder,
    NULL_RECORDER,
    RunManifest,
)
from repro.traces.io import load_corpus, save_corpus
from repro.traces.synthetic import make_dataset

_ABR_TARGETS = {
    "bb": BufferBased,
    "mpc": lambda: MPC(robust=False),
    "robust-mpc": MPC,
    "rb": RateBased,
}
_SENDERS = {"bbr": BBRSender, "cubic": CubicSender, "reno": RenoSender}


def _add_exec_args(p: argparse.ArgumentParser, cache: bool = True) -> None:
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: $REPRO_WORKERS or serial)")
    p.add_argument("--batch-size", type=int, default=None,
                   help="sessions per lockstep batch "
                        "(default: $REPRO_BATCH_SIZE or serial)")
    if cache:
        p.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: $REPRO_CACHE_DIR)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the result cache for this run")


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--log-dir", default=None,
                   help="write manifest.json + metrics.jsonl to this directory "
                        "(default: $REPRO_LOG_DIR; unset = no logging)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines (result tables still print)")


@contextmanager
def _run_context(args: argparse.Namespace):
    """Yield ``(recorder, console)`` for one CLI run.

    Writes the run manifest up front when a log directory is configured
    and closes the event log on the way out, success or failure.
    """
    log_dir = args.log_dir or os.environ.get(LOG_DIR_ENV)
    recorder = MetricsRecorder(log_dir) if log_dir else NULL_RECORDER
    console = Console(quiet=args.quiet, recorder=recorder)
    if log_dir:
        # log_dir/quiet steer observability, not the computation, so they
        # stay out of the manifest (and hence the run fingerprint).
        config = {k: v for k, v in vars(args).items()
                  if k not in ("func", "command", "log_dir", "quiet")}
        manifest = RunManifest.create(
            args.command, config, seed=getattr(args, "seed", None)
        )
        console.info(f"run manifest: {manifest.write(log_dir)}")
    try:
        yield recorder, console
    finally:
        recorder.close()


def _resolve_cache(args: argparse.Namespace) -> "ResultCache | bool | None":
    if args.no_cache:
        return False
    if args.cache_dir:
        return ResultCache(args.cache_dir)
    return ResultCache.from_env()


def _report_exec(cache, workers, recorder, console: Console,
                 batch_size: int | None = None) -> None:
    """Post-run telemetry: what ran where, what was served from cache."""
    n = resolve_workers(workers)
    console.info(f"workers: {n if n > 1 else 'serial'}")
    if batch_size is not None:
        b = resolve_batch_size(batch_size)
        console.info(f"batch size: {b if b >= 1 else 'serial'}")
    if isinstance(cache, ResultCache):
        cache.record_metrics(recorder)
        console.info(cache.summary())
    else:
        console.info("cache: disabled")


def _cmd_train_abr_adversary(args: argparse.Namespace) -> int:
    with _run_context(args) as (recorder, console):
        video = Video.synthetic(n_chunks=args.chunks, seed=args.video_seed)
        target = _ABR_TARGETS[args.target]()
        console.info(
            f"training adversary vs {args.target} for {args.steps} steps ..."
        )
        with recorder.timer("cli/train_seconds"):
            result = train_abr_adversary(
                target, video, total_steps=args.steps, seed=args.seed,
                smoothing_weight=args.smoothing_weight, goal=args.goal,
                n_envs=args.n_envs, vec_backend=args.vec_backend,
                recorder=recorder,
            )
        rewards = [h["mean_episode_reward"] for h in result.history]
        console.info(
            f"adversary episode reward: {rewards[0]:.1f} -> {rewards[-1]:.1f}"
        )
        if args.out:
            result.trainer.save(args.out)
            console.info(f"saved adversary model to {args.out}")
        if args.traces_out:
            with recorder.timer("cli/generate_traces_seconds"):
                rolls = generate_abr_traces(
                    result.trainer, result.env, args.n_traces,
                    seed=args.trace_seed,
                    workers=args.workers if args.trace_seed is not None else 0,
                    batch_size=(
                        args.batch_size if args.trace_seed is not None else 0
                    ),
                )
            save_corpus([r.trace for r in rolls], args.traces_out)
            qoe = float(np.mean([r.target_qoe_mean for r in rolls]))
            recorder.record("cli/target_qoe_mean", qoe)
            console.info(f"wrote {args.n_traces} traces to {args.traces_out} "
                         f"(target mean QoE {qoe:.3f})")
    return 0


def _cmd_train_cc_adversary(args: argparse.Namespace) -> int:
    with _run_context(args) as (recorder, console):
        sender_cls = _SENDERS[args.sender]
        console.info(
            f"training adversary vs {args.sender} for {args.steps} steps ..."
        )
        with recorder.timer("cli/train_seconds"):
            result = train_cc_adversary(
                sender_cls, total_steps=args.steps, seed=args.seed,
                episode_intervals=args.episode_intervals, recorder=recorder,
            )
        rewards = [h["mean_episode_reward"] for h in result.history]
        console.info(
            f"adversary episode reward: {rewards[0]:.1f} -> {rewards[-1]:.1f}"
        )
        if args.out:
            result.trainer.save(args.out)
            console.info(f"saved adversary model to {args.out}")
        if args.traces_out:
            with recorder.timer("cli/generate_traces_seconds"):
                rolls = generate_cc_traces(
                    result.trainer, result.env, args.n_traces,
                    seed=args.trace_seed,
                    workers=args.workers if args.trace_seed is not None else 0,
                )
            save_corpus([r.trace for r in rolls], args.traces_out)
            frac = float(np.mean([r.capacity_fraction for r in rolls]))
            recorder.record("cli/capacity_fraction", frac)
            console.info(f"wrote {args.n_traces} traces to {args.traces_out} "
                         f"(target at {frac:.0%} of capacity)")
    return 0


def _cmd_evaluate_abr(args: argparse.Namespace) -> int:
    with _run_context(args) as (recorder, console):
        video = Video.synthetic(n_chunks=args.chunks, seed=args.video_seed)
        traces = load_corpus(args.traces)
        cache = _resolve_cache(args)
        protocols = {name: factory() for name, factory in _ABR_TARGETS.items()}
        qoe = evaluate_protocols(
            video, traces, protocols, chunk_indexed=args.chunk_indexed,
            workers=args.workers, cache=cache if cache is not None else False,
            recorder=recorder, batch_size=args.batch_size,
        )
        rows = [
            [name, float(np.mean(qoes)), float(np.min(qoes))]
            for name, qoes in qoe.items()
        ]
        console.out(format_table(["protocol", "mean QoE", "min QoE"], rows))
        _report_exec(cache, args.workers, recorder, console,
                     batch_size=args.batch_size)
    return 0


def _cmd_evaluate_cc(args: argparse.Namespace) -> int:
    with _run_context(args) as (recorder, console):
        traces = load_corpus(args.traces)
        sender_cls = _SENDERS[args.sender]
        cache = _resolve_cache(args)
        runs = run_sender_on_traces(
            sender_cls, traces,
            seeds=[args.seed + i for i in range(len(traces))],
            workers=args.workers, cache=cache if cache is not None else False,
            recorder=recorder,
        )
        rows = [
            [trace.name, run.mean_throughput_mbps, run.capacity_fraction]
            for trace, run in zip(traces, runs)
        ]
        console.out(
            format_table(["trace", "throughput (Mbps)", "capacity fraction"], rows)
        )
        _report_exec(cache, args.workers, recorder, console)
    return 0


def _cmd_eval_cc_matrix(args: argparse.Namespace) -> int:
    with _run_context(args) as (recorder, console):
        cache = _resolve_cache(args)
        with recorder.timer("cli/eval_cc_matrix_seconds"):
            result = run_cc_scenario_matrix(
                protocols=args.protocols or None,
                n_intervals=args.intervals,
                seed=args.seed,
                schedule_seed=args.schedule_seed,
                workers=args.workers,
                cache=cache if cache is not None else False,
                recorder=recorder,
            )
        text = format_matrix(result)
        console.out(text)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            console.info(f"wrote {args.out}")
        _report_exec(cache, args.workers, recorder, console)
    return 0


def _cmd_regression_build(args: argparse.Namespace) -> int:
    from repro.adversary.regression import AdversarialRegressionSuite

    with _run_context(args) as (recorder, console):
        video = Video.synthetic(n_chunks=args.chunks, seed=args.video_seed)
        protocol = _ABR_TARGETS[args.protocol]()
        suite = AdversarialRegressionSuite(video, margin=args.margin)
        console.info(f"hunting worst cases against {args.protocol} "
                     f"({args.steps} adversary steps) ...")
        with recorder.timer("cli/regression_refresh_seconds"):
            added = suite.refresh(protocol, adversary_steps=args.steps,
                                  n_traces=args.n_traces, keep_worst=args.keep,
                                  seed=args.seed)
        suite.save(args.out)
        recorder.record("cli/regression_cases", len(added))
        console.info(f"recorded {len(added)} cases to {args.out}; thresholds: "
                     + ", ".join(f"{c.min_qoe:.2f}" for c in added))
    return 0


def _cmd_regression_check(args: argparse.Namespace) -> int:
    from repro.adversary.regression import AdversarialRegressionSuite

    with _run_context(args) as (recorder, console):
        video = Video.synthetic(n_chunks=args.chunks, seed=args.video_seed)
        suite = AdversarialRegressionSuite(video)
        suite.load(args.suite)
        protocol = _ABR_TARGETS[args.protocol]()
        report = suite.check(protocol)
        recorder.record("cli/regression_ok", int(report.ok))
        console.out(report.summary())
    return 0 if report.ok else 1


def _serve_protocols(args: argparse.Namespace) -> dict:
    """The protocol lineup a serve/loadgen run fronts (or verifies against)."""
    from repro.serve import default_protocols

    protocols = default_protocols(
        pensieve_hidden=tuple(args.pensieve_hidden),
        pensieve_seed=args.pensieve_seed,
    )
    if args.protocols:
        names = [n.strip() for n in args.protocols.split(",") if n.strip()]
        unknown = sorted(set(names) - set(protocols))
        if unknown:
            raise SystemExit(f"unknown protocol(s): {', '.join(unknown)} "
                             f"(choose from {', '.join(sorted(protocols))})")
        protocols = {n: protocols[n] for n in names}
    return protocols


def _serve_batch_size(args: argparse.Namespace) -> int:
    """``--batch-size``/``$REPRO_BATCH_SIZE`` for serving: 0/unset -> 64."""
    resolved = resolve_batch_size(args.batch_size)
    return resolved if resolved >= 1 else 64


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import DecisionService, HttpServer

    with _run_context(args) as (recorder, console):
        video = Video.synthetic(n_chunks=args.chunks, seed=args.video_seed)
        protocols = _serve_protocols(args)
        cache = _resolve_cache(args)
        service = DecisionService(
            video, protocols, batch_size=_serve_batch_size(args),
            max_wait_us=args.max_wait_us, max_sessions=args.max_sessions,
            seed=args.seed, cache=cache if isinstance(cache, ResultCache) else None,
            recorder=recorder,
        )

        async def run() -> None:
            server = HttpServer(service, host=args.host, port=args.port)
            await server.start()
            console.info(
                f"serving {', '.join(sorted(protocols))} on "
                f"http://{args.host}:{server.port} "
                f"(mode {service.mode}, batch {service.batch_size})"
            )
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, stop.set)
            try:
                await stop.wait()
            finally:
                for sig in (signal.SIGINT, signal.SIGTERM):
                    loop.remove_signal_handler(sig)
                console.info("shutting down (draining in-flight requests) ...")
                await server.close()
                service.record_metrics()
                stats = service.stats()
                console.info(
                    f"served {stats['requests']['decisions']} decisions over "
                    f"{stats['requests']['total']} requests "
                    f"({stats['sessions']['created']} sessions)"
                )

        asyncio.run(run())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import (
        CONTENT_BINARY,
        CONTENT_JSON,
        DecisionService,
        HttpTransport,
        InprocTransport,
        run_loadgen,
    )
    from repro.traces.random_traces import random_abr_traces

    with _run_context(args) as (recorder, console):
        video = Video.synthetic(n_chunks=args.chunks, seed=args.video_seed)
        if args.traces:
            traces = load_corpus(args.traces)
        else:
            traces = random_abr_traces(args.n_traces, seed=args.trace_seed,
                                       n_segments=args.chunks)
        content = CONTENT_BINARY if args.codec == "binary" else CONTENT_JSON
        reference = _serve_protocols(args)[args.protocol] if args.verify else None

        async def run():
            if args.inproc:
                cache = _resolve_cache(args)
                service = DecisionService(
                    video, _serve_protocols(args),
                    batch_size=_serve_batch_size(args),
                    max_wait_us=args.max_wait_us, seed=args.seed,
                    cache=cache if isinstance(cache, ResultCache) else None,
                    recorder=recorder,
                )
                await service.start()
                transport = InprocTransport(service)
                try:
                    return await run_loadgen(
                        transport, video, traces, args.protocol, args.players,
                        content_type=content, reference=reference,
                    )
                finally:
                    await service.close()
            transport = HttpTransport(args.host, args.port,
                                      connections=args.connections)
            try:
                return await run_loadgen(
                    transport, video, traces, args.protocol, args.players,
                    content_type=content, reference=reference,
                )
            finally:
                await transport.close()

        report = asyncio.run(run())
        for line in report.lines():
            console.out(line)
        recorder.record("loadgen/requests_per_second",
                        report.requests_per_second)
        recorder.record("loadgen/errors", report.errors)
        if report.mismatches >= 0:
            recorder.record("loadgen/mismatches", report.mismatches)
        if args.summary_out:
            with open(args.summary_out, "w") as fh:
                json.dump(report.summary_dict(), fh, indent=2)
                fh.write("\n")
            console.info(f"wrote latency summary to {args.summary_out}")
    return 1 if (report.errors or report.mismatches > 0) else 0


def _attack_config(args: argparse.Namespace):
    from repro.attacks import AttackConfig

    return AttackConfig(
        kind=args.attack, norm=args.norm, eps=args.eps, steps=args.pgd_steps,
        step_size=args.step_size, targeted=args.targeted,
        target_action=args.target_action, rand_init=args.rand_init,
        seed=args.attack_seed,
    )


def _cmd_attack_abr(args: argparse.Namespace) -> int:
    from repro.abr.protocols.pensieve import train_pensieve
    from repro.attacks import AttackedPensieve
    from repro.serve.service import make_demo_pensieve
    from repro.traces.random_traces import random_abr_traces

    with _run_context(args) as (recorder, console):
        video = Video.synthetic(n_chunks=args.chunks, seed=args.video_seed)
        if args.traces:
            traces = load_corpus(args.traces)
        else:
            traces = random_abr_traces(args.n_traces, seed=args.trace_seed,
                                       n_segments=args.chunks)

        def make_head(seed: int):
            if args.pensieve_train_steps > 0:
                train = random_abr_traces(16, seed=seed + 1000,
                                          n_segments=args.chunks)
                with recorder.timer("cli/pensieve_train_seconds", seed=seed):
                    return train_pensieve(
                        train, video, total_steps=args.pensieve_train_steps,
                        seed=seed,
                    ).agent
            return make_demo_pensieve(seed=seed)

        victim = make_head(args.pensieve_seed)
        surrogate = None
        if (args.surrogate_seed is not None
                and args.surrogate_seed != args.pensieve_seed):
            surrogate = make_head(args.surrogate_seed)
        attacked = AttackedPensieve(victim, _attack_config(args),
                                    surrogate=surrogate)
        cache = _resolve_cache(args)
        protocols = {
            "bb": BufferBased(),
            "mpc": MPC(robust=False),
            "pensieve": victim,
            attacked.name: attacked,
        }
        qoe = evaluate_protocols(
            video, traces, protocols, chunk_indexed=args.chunk_indexed,
            workers=args.workers, cache=cache if cache is not None else False,
            recorder=recorder, batch_size=args.batch_size,
        )
        clean_mean = float(np.mean(qoe["pensieve"]))
        rows = []
        for name, qoes in qoe.items():
            mean = float(np.mean(qoes))
            damage = clean_mean - mean if name == attacked.name else 0.0
            rows.append([name, mean, float(np.min(qoes)), damage])
        console.out(format_table(
            ["protocol", "mean QoE", "min QoE", "damage vs clean"], rows
        ))
        damage = clean_mean - float(np.mean(qoe[attacked.name]))
        recorder.record("cli/attack_damage", damage)

        mismatches = 0
        if args.verify:
            # Determinism check: replay the attacked evaluation serially
            # and through the batched engine, both uncached (a cache hit
            # would trivially "match"), and demand bitwise-equal QoE.
            reference = qoe[attacked.name]
            replays = {
                "serial": dict(workers=0, batch_size=0),
                "batched": dict(workers=0,
                                batch_size=max(resolve_batch_size(args.batch_size), 7)),
            }
            for label, opts in replays.items():
                replay = evaluate_protocols(
                    video, traces, {attacked.name: attacked},
                    chunk_indexed=args.chunk_indexed, cache=False,
                    recorder=recorder, **opts,
                )[attacked.name]
                bad = sum(a != b for a, b in zip(reference, replay))
                mismatches += bad
                console.info(f"verify {label}: "
                             f"{'OK' if bad == 0 else f'{bad} mismatches'}")
            recorder.record("cli/verify_mismatches", mismatches)

        if args.summary_out:
            summary = {
                "attack": attacked.name,
                "eps": args.eps,
                "clean_qoe_mean": clean_mean,
                "attacked_qoe_mean": float(np.mean(qoe[attacked.name])),
                "damage": damage,
                "qoe": {name: float(np.mean(q)) for name, q in qoe.items()},
                "verify_mismatches": mismatches if args.verify else None,
            }
            with open(args.summary_out, "w") as fh:
                json.dump(summary, fh, indent=2)
                fh.write("\n")
            console.info(f"wrote attack summary to {args.summary_out}")
        _report_exec(cache, args.workers, recorder, console,
                     batch_size=args.batch_size)
    return 1 if mismatches else 0


def _cmd_make_dataset(args: argparse.Namespace) -> int:
    with _run_context(args) as (recorder, console):
        traces = make_dataset(args.kind, args.count, seed=args.seed,
                              duration=args.duration)
        save_corpus(traces, args.out)
        mean_bw = float(np.mean([t.mean_bandwidth() for t in traces]))
        recorder.record("cli/mean_bandwidth_mbps", mean_bw)
        console.info(f"wrote {len(traces)} {args.kind} traces to {args.out} "
                     f"(mean bandwidth {mean_bw:.2f} Mbps)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-abr-adversary", help="train an adversary vs an ABR protocol")
    p.add_argument("--target", choices=sorted(_ABR_TARGETS), default="bb")
    p.add_argument("--steps", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunks", type=int, default=48)
    p.add_argument("--video-seed", type=int, default=1)
    p.add_argument("--smoothing-weight", type=float, default=1.0)
    p.add_argument("--goal", choices=("qoe_regret", "rebuffer"), default="qoe_regret")
    p.add_argument("--n-envs", type=int, default=1,
                   help="parallel rollout envs (1 = a one-env vec env)")
    p.add_argument("--vec-backend", choices=("sync", "subproc", "batched"),
                   default="sync",
                   help="rollout vec-env backend; 'batched' serves "
                        "the target with one vectorized call per step "
                        "(same rollouts bit for bit, fastest for pensieve)")
    p.add_argument("--out", help="save the trained model (.npz)")
    p.add_argument("--traces-out", help="write generated traces (JSONL)")
    p.add_argument("--n-traces", type=int, default=20)
    p.add_argument("--trace-seed", type=int, default=None,
                   help="seed for per-trace rollout noise (enables --workers)")
    _add_exec_args(p, cache=False)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_train_abr_adversary)

    p = sub.add_parser("train-cc-adversary", help="train an adversary vs a CC sender")
    p.add_argument("--sender", choices=sorted(_SENDERS), default="bbr")
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episode-intervals", type=int, default=1000)
    p.add_argument("--out", help="save the trained model (.npz)")
    p.add_argument("--traces-out", help="write generated traces (JSONL)")
    p.add_argument("--n-traces", type=int, default=5)
    p.add_argument("--trace-seed", type=int, default=None,
                   help="seed for per-trace rollout noise (enables --workers)")
    _add_exec_args(p, cache=False)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_train_cc_adversary)

    p = sub.add_parser("evaluate-abr", help="run every ABR protocol over a corpus")
    p.add_argument("--traces", required=True)
    p.add_argument("--chunks", type=int, default=48)
    p.add_argument("--video-seed", type=int, default=1)
    p.add_argument("--chunk-indexed", action="store_true",
                   help="apply one bandwidth per chunk (adversarial replay)")
    _add_exec_args(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_evaluate_abr)

    p = sub.add_parser("evaluate-cc", help="replay CC traces against a sender")
    p.add_argument("--traces", required=True)
    p.add_argument("--sender", choices=sorted(_SENDERS), default="bbr")
    p.add_argument("--seed", type=int, default=0)
    _add_exec_args(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_evaluate_cc)

    p = sub.add_parser(
        "eval-cc-matrix",
        help="run the 5x4 contention scenario matrix on the multi-flow "
             "emulator",
    )
    p.add_argument("--protocols", nargs="*", choices=sorted(MATRIX_PROTOCOLS),
                   default=None,
                   help="subset of protocols (default: all five)")
    p.add_argument("--intervals", type=int, default=600,
                   help="30 ms adversary intervals per cell (default 600 = 18 s)")
    p.add_argument("--seed", type=int, default=0,
                   help="emulator loss-process seed")
    p.add_argument("--schedule-seed", type=int, default=42,
                   help="seed of the replayed adversarial link schedule")
    p.add_argument("--out", default=None,
                   help="also write the table to this file "
                        "(e.g. results/cc_matrix.txt)")
    _add_exec_args(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_eval_cc_matrix)

    p = sub.add_parser("regression-build",
                       help="record adversarial worst cases as a CI suite")
    p.add_argument("--protocol", choices=sorted(_ABR_TARGETS), default="bb")
    p.add_argument("--steps", type=int, default=20_000)
    p.add_argument("--n-traces", type=int, default=10)
    p.add_argument("--keep", type=int, default=5)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunks", type=int, default=48)
    p.add_argument("--video-seed", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_regression_build)

    p = sub.add_parser("regression-check",
                       help="replay a recorded suite against a protocol")
    p.add_argument("--suite", required=True)
    p.add_argument("--protocol", choices=sorted(_ABR_TARGETS), required=True)
    p.add_argument("--chunks", type=int, default=48)
    p.add_argument("--video-seed", type=int, default=1)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_regression_check)

    def _add_serve_video_args(p: argparse.ArgumentParser) -> None:
        # Video + Pensieve construction: an HTTP loadgen can only verify
        # served decisions when these match the server's flags exactly.
        p.add_argument("--chunks", type=int, default=48)
        p.add_argument("--video-seed", type=int, default=1)
        p.add_argument("--protocols", default=None,
                       help="comma-separated subset to serve "
                            "(default: bb,bola,mpc,robust-mpc,rb,pensieve)")
        p.add_argument("--pensieve-hidden", type=int, nargs="+",
                       default=[64, 32],
                       help="hidden layer widths of the demo Pensieve head")
        p.add_argument("--pensieve-seed", type=int, default=11)
        p.add_argument("--seed", type=int, default=0,
                       help="service seed (per-session rng spawning)")
        p.add_argument("--max-wait-us", type=float, default=0.0,
                       help="coalescing window: max microseconds to wait for "
                            "a full batch (0 = one event-loop tick)")

    p = sub.add_parser("serve",
                       help="run the ABR decision service over HTTP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8008,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--max-sessions", type=int, default=65_536)
    _add_serve_video_args(p)
    _add_exec_args(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("loadgen",
                       help="closed-loop load generator for the decision service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8008)
    p.add_argument("--inproc", action="store_true",
                   help="spin up the service in-process instead of over HTTP")
    p.add_argument("--protocol", default="bola",
                   help="protocol the simulated players request")
    p.add_argument("--players", type=int, default=100)
    p.add_argument("--codec", choices=("json", "binary"), default="json")
    p.add_argument("--connections", type=int, default=32,
                   help="HTTP keep-alive connection pool size")
    p.add_argument("--traces", default=None,
                   help="trace corpus (JSONL); default: random ABR traces")
    p.add_argument("--n-traces", type=int, default=16)
    p.add_argument("--trace-seed", type=int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="replay every player inline and count decision "
                        "mismatches (HTTP: video/Pensieve flags must match "
                        "the server's)")
    p.add_argument("--summary-out", default=None,
                   help="write the latency/throughput summary JSON here")
    _add_serve_video_args(p)
    _add_exec_args(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser("attack-abr",
                       help="evaluate Pensieve under white-box FGSM/PGD "
                            "observation attacks")
    p.add_argument("--attack", choices=("fgsm", "pgd"), default="fgsm")
    p.add_argument("--norm", choices=("linf", "l2"), default="linf")
    p.add_argument("--eps", type=float, default=0.05,
                   help="attack budget in raw feature units")
    p.add_argument("--pgd-steps", type=int, default=10,
                   help="PGD iterations (ignored for fgsm)")
    p.add_argument("--step-size", type=float, default=None,
                   help="PGD step size (default: 2.5*eps/steps)")
    p.add_argument("--targeted", action="store_true",
                   help="drag decisions toward --target-action instead of "
                        "untargeted cross-entropy ascent")
    p.add_argument("--target-action", type=int, default=0,
                   help="ladder index the targeted attack forces (0 = lowest)")
    p.add_argument("--rand-init", action="store_true",
                   help="random PGD start inside the budget ball")
    p.add_argument("--attack-seed", type=int, default=0,
                   help="seed for the attack's (per-session) random start")
    p.add_argument("--pensieve-seed", type=int, default=0,
                   help="victim head seed")
    p.add_argument("--pensieve-train-steps", type=int, default=6000,
                   help="PPO steps to train each head (0 = frozen demo head)")
    p.add_argument("--surrogate-seed", type=int, default=None,
                   help="craft gradients with a different head's seed "
                        "(transfer attack); default: white-box")
    p.add_argument("--traces", default=None,
                   help="trace corpus (JSONL); default: random ABR traces")
    p.add_argument("--n-traces", type=int, default=12)
    p.add_argument("--trace-seed", type=int, default=0)
    p.add_argument("--chunks", type=int, default=48)
    p.add_argument("--video-seed", type=int, default=1)
    p.add_argument("--chunk-indexed", action="store_true",
                   help="apply one bandwidth per chunk (adversarial replay)")
    p.add_argument("--verify", action="store_true",
                   help="replay the attacked evaluation serially and batched, "
                        "uncached, and fail on any QoE mismatch")
    p.add_argument("--summary-out", default=None,
                   help="write a JSON summary (means, damage, verify) here")
    _add_exec_args(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_attack_abr)

    p = sub.add_parser("make-dataset", help="generate a synthetic trace corpus")
    p.add_argument("--kind", choices=("broadband", "3g"), required=True)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=320.0)
    p.add_argument("--out", required=True)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_make_dataset)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
