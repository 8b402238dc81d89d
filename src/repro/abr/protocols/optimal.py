"""Offline-optimal ABR given known future per-chunk bandwidth.

One plan-search kernel and one dynamic program:

- :func:`best_plans` -- each lane's best total QoE over every bitrate
  plan of a short window, and the first plan (in ``itertools.product``
  order) that reaches it, for a batch of lanes.  It is the package's
  only plan search.  The adversary's ``r_opt`` -- "the highest possible
  QoE over the last 4 network changes" (section 3) -- is its best total
  (:func:`optimal_qoe_exhaustive` and its batch and mixed-length forms),
  and MPC executes the first step of its best plan.  Small searches
  scan every plan (:func:`plan_totals`, its dense path); large ones
  prune plans that provably cannot win.
- :func:`optimal_plan_dp` -- full-video optimum by dynamic programming
  over a discretized buffer, used for the "Offline Optimum" overlay in
  Figure 3.

Both assume the per-chunk bandwidth schedule of the online adversary:
conditions are fixed for the duration of each chunk download, which makes
the download time of chunk ``i`` at quality ``q`` simply
``size(i, q) / rate_i + RTT``.
"""

from __future__ import annotations

import numpy as np

from repro.abr.qoe import QoEWeights
from repro.abr.simulator import BUFFER_CAP_S, LINK_RTT_S, PACKET_PAYLOAD_PORTION
from repro.abr.video import Video

__all__ = [
    "best_plans",
    "optimal_plan_dp",
    "optimal_qoe_exhaustive",
    "optimal_qoe_exhaustive_batch",
    "optimal_qoe_exhaustive_mixed",
    "plan_totals",
]

#: Plan totals per lattice pass: lanes are scanned in tiles of
#: ``_TILE_PLANS // width`` (at least one), ``width`` being the last
#: level's prefixes per lane.  That is 8 lanes for every plan of MPC's
#: 5-chunk horizon (7776 each), where one ``(L, plans)`` pass would
#: stream megabytes per op, and 48 lanes for a 4-chunk ``r_opt`` window,
#: where smaller tiles only add per-op call overhead.  Every temporary
#: stays cache-resident across the op chain; rows are independent, so
#: tiling changes nothing at the bit level.
_TILE_PLANS = 8 * 6**5

#: Lane-plans (lanes x ``n_b ** steps``) from which :func:`best_plans`
#: prunes instead of scanning every plan; see the constant's measurement
#: in docs/architecture.md.  Below it the frontier's indexing costs more
#: than the plans it skips (one serial MPC decision is 7,776).
_PRUNE_MIN_PLANS = 2**14

#: Prefixes per lane that the pruned search's leading lattice grows to
#: (at least one level, at most ``steps - 1``) before the frontier takes
#: over: three levels of a 6-rung ladder.
_LEAD_WIDTH = 6**3

#: Per-(ladder, weights) quality-score vectors.  ``weights.quality`` is a
#: pure function of its inputs, so the table is reusable across the
#: millions of solver calls a training run makes; unhashable weights
#: (exotic subclasses) just skip the cache.
_QUALITY_CACHE: dict[tuple, np.ndarray] = {}


def _quality_table(video: Video, weights: QoEWeights) -> np.ndarray:
    try:
        key = (video.bitrates_kbps, type(weights), weights)
        cached = _QUALITY_CACHE.get(key)
    except TypeError:
        return np.array([weights.quality(b) for b in video.bitrates_kbps])
    if cached is None:
        cached = np.array([weights.quality(b) for b in video.bitrates_kbps])
        _QUALITY_CACHE[key] = cached
    return cached


def plan_totals(
    downloads: np.ndarray,
    start_buffers,
    prev_values,
    has_prev,
    qualities: np.ndarray,
    weights: QoEWeights,
    buffer_cap: float,
    chunk_seconds: float,
) -> np.ndarray:
    """Total QoE of every bitrate plan, per lane; returns ``(L, n_b ** steps)``.

    ``downloads[l, k, c]`` is lane ``l``'s download time of its ``k``-th
    window chunk at quality ``c``; ``qualities[c]`` is that quality's
    score.  Lane ``l`` starts with ``start_buffers[l]`` seconds buffered
    and, where ``has_prev[l]``, a previous chunk scored ``prev_values[l]``
    (otherwise the first chunk pays no smoothing penalty).  The buffer
    is capped at ``buffer_cap`` after each download (``np.inf``: no cap).

    Column ``j`` is the plan ``itertools.product(range(n_b), repeat=steps)``
    yields ``j``-th, so a first-max ``argmax`` keeps the enumeration's
    tie-break and ``argmax // n_b ** (steps - 1)`` is the best first step.

    The plans form a prefix lattice: level ``k`` holds one partial plan
    per choice prefix and broadcasts ``(L, width, 1)`` buffers against
    ``(L, 1, n_b)`` downloads into ``(L, width * n_b)`` children, child
    ``j * n_b + c`` of prefix ``j``, so a shared prefix's buffer and
    partial sum are computed once.  Every plan still takes the
    elementwise op chain ``total + (q - rebuffer_penalty * rebuffer)``
    then ``- smooth_penalty * |q - q_prev|``, so its total is bitwise the
    one a plan-by-plan simulation gives.  This is :func:`best_plans`'s
    dense path.
    """
    return _lattice(
        downloads, start_buffers, prev_values, has_prev, qualities, weights,
        buffer_cap, chunk_seconds, downloads.shape[1], False,
    )[0]


def _lattice(downloads, start_buffers, prev_values, has_prev, qualities, weights,
             buffer_cap, chunk_seconds, levels, keep_buffers):
    """The first ``levels`` lattice levels of :func:`plan_totals`.

    Returns the last level's ``(L, n_b ** levels)`` partial totals and,
    with ``keep_buffers``, the buffers after it (else ``None``).
    """
    n_lanes, _, n_b = downloads.shape
    start_buffers = np.asarray(start_buffers, dtype=float)
    prev_values = np.asarray(prev_values, dtype=float)
    has_prev = np.asarray(has_prev, dtype=bool)
    penalty = _switch_penalties(qualities, weights)
    totals = np.empty((n_lanes, n_b**levels))
    buffers = np.empty((n_lanes, n_b**levels)) if keep_buffers else None
    tile = max(1, _TILE_PLANS // n_b**levels)
    # Ping-pong storage for the inner levels' totals and buffers; the
    # last level writes straight into ``totals`` (and ``buffers``).
    scratch = np.empty((4, min(tile, n_lanes) * n_b ** (levels - 1)))
    for t0 in range(0, n_lanes, tile):
        t1 = min(t0 + tile, n_lanes)
        m = t1 - t0
        buffer = start_buffers[t0:t1, None]
        total = np.zeros((m, 1))
        width = 1
        for k in range(levels):
            last = k == levels - 1
            size = m * width * n_b
            download = downloads[t0:t1, None, k, :]
            parent = buffer[:, :, None]
            out = totals[t0:t1] if last else scratch[k % 2, :size]
            child = out.reshape(m, width, n_b)
            # child = total + (q - rebuffer_penalty * rebuffer), built in
            # place; IEEE + and * commute exactly.
            np.subtract(download, parent, out=child)
            np.maximum(child, 0.0, out=child)
            np.multiply(child, weights.rebuffer_penalty, out=child)
            np.subtract(qualities, child, out=child)
            np.add(child, total[:, :, None], out=child)
            if k == 0:
                # x - 0.0 == x bitwise, so a lane without a previous chunk
                # is left exactly as if the term were skipped.
                switch = np.abs(qualities[None, :] - prev_values[t0:t1, None])
                child -= (weights.smooth_penalty * switch * has_prev[t0:t1, None])[:, None, :]
            else:
                grouped = out.reshape(m, width // n_b, n_b, n_b)
                grouped -= penalty
            if not last or keep_buffers:
                nxt = (buffers[t0:t1] if last else scratch[2 + k % 2, :size]).reshape(
                    m, width, n_b
                )
                np.subtract(parent, download, out=nxt)
                np.maximum(nxt, 0.0, out=nxt)
                nxt += chunk_seconds
                np.minimum(nxt, buffer_cap, out=nxt)
                buffer = nxt.reshape(m, -1)
            total = out.reshape(m, -1)
            width *= n_b
    return totals, buffers


def _switch_penalties(qualities: np.ndarray, weights: QoEWeights) -> np.ndarray:
    """``penalty[p, c]``: the switch cost from quality ``p`` to quality ``c``."""
    return weights.smooth_penalty * np.abs(qualities[None, :] - qualities[:, None])


def _grow(total, buffer, download, switch, qualities, weights):
    """One lattice level for a flat list of prefixes: ``(P, n_b)`` children.

    ``total``/``buffer`` are the ``(P,)`` prefixes' partial totals and
    buffers, ``download`` their ``(P, n_b)`` next-chunk download times and
    ``switch`` their ``(P, n_b)`` switch penalties from the last choice.
    The op chain is :func:`_lattice`'s, so every child is bitwise the
    lattice's.
    """
    child = np.subtract(download, buffer[:, None])
    np.maximum(child, 0.0, out=child)
    np.multiply(child, weights.rebuffer_penalty, out=child)
    np.subtract(qualities, child, out=child)
    np.add(child, total[:, None], out=child)
    child -= switch
    return child


def _drain(buffer, download, buffer_cap, chunk_seconds):
    """The buffer after a download, :func:`_lattice`'s op chain on a flat
    list of the children worth keeping."""
    nxt = np.subtract(buffer, download)
    np.maximum(nxt, 0.0, out=nxt)
    nxt += chunk_seconds
    np.minimum(nxt, buffer_cap, out=nxt)
    return nxt


def _ceiling(totals: np.ndarray, levels: int, q_max: float) -> np.ndarray:
    """``totals + q_max + ...`` (one ``+`` per level still to go): a bound
    on the float total of every completion (see :func:`best_plans`)."""
    bound = totals + q_max
    for _ in range(levels - 1):
        bound += q_max
    return bound


def best_plans(
    downloads: np.ndarray,
    start_buffers,
    prev_values,
    has_prev,
    qualities: np.ndarray,
    weights: QoEWeights,
    buffer_cap: float,
    chunk_seconds: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Best total QoE per lane and the first plan reaching it.

    Same inputs as :func:`plan_totals` (finite, with ``weights``'
    penalties non-negative, as :class:`~repro.abr.qoe.QoEWeights`
    enforces); returns ``(best, index)``, both ``(L,)``, bitwise equal to
    ``totals.max(axis=1)`` and ``totals.argmax(axis=1)`` of its full
    scan: ``index[l]`` is the first best plan in ``itertools.product``
    order, so ``index // n_b ** (steps - 1)`` is MPC's first step.

    Below :data:`_PRUNE_MIN_PLANS` lane-plans it *is* that scan.  Above,
    it prunes:

    1. The dense lattice runs for the leading levels, up to
       :data:`_LEAD_WIDTH` prefixes per lane.
    2. A lower bound ``low`` per lane is the exact total of one complete
       plan: a greedy dive from the lane's best leading prefix, taking
       the best child at every later level, through the lattice's own op
       chain.  The best total is therefore at least ``low``.
    3. The trailing levels run as a compact frontier of surviving
       prefixes (buffers are drained only for the survivors).  A prefix
       ``r`` levels short of the end is dropped when ``total + q_max +
       ... + q_max`` (``r`` float additions) is below ``low``.  Every level adds ``q - rebuffer_penalty * rebuffer <=
       q_max`` and then subtracts a switch penalty ``>= 0``, and IEEE
       rounding is monotone, so that sum bounds the float total of every
       completion: a dropped plan can neither be the best nor tie it.
       The greedy plan's own prefixes always survive, so no lane empties.

    The max and the first argmax over the survivors are then those over
    all plans.
    """
    n_lanes, steps, n_b = downloads.shape
    if steps == 1 or n_lanes * n_b**steps < _PRUNE_MIN_PLANS:
        totals = plan_totals(
            downloads, start_buffers, prev_values, has_prev, qualities, weights,
            buffer_cap, chunk_seconds,
        )
        index = np.argmax(totals, axis=1)
        return totals[np.arange(n_lanes), index], index
    lead = 1
    while lead < steps - 1 and n_b ** (lead + 1) <= _LEAD_WIDTH:
        lead += 1
    totals, buffers = _lattice(
        downloads, start_buffers, prev_values, has_prev, qualities, weights,
        buffer_cap, chunk_seconds, lead, True,
    )
    penalty = _switch_penalties(qualities, weights)
    lanes = np.arange(n_lanes)
    # Lower bound: the greedy dive.
    pick = np.argmax(totals, axis=1)
    low, buffer = totals[lanes, pick], buffers[lanes, pick]
    for k in range(lead, steps):
        download = downloads[:, k]
        child = _grow(low, buffer, download, penalty[pick % n_b], qualities, weights)
        pick = np.argmax(child, axis=1)
        low = child[lanes, pick]
        if k < steps - 1:
            buffer = _drain(buffer, download[lanes, pick], buffer_cap, chunk_seconds)
    # The frontier: (lane, prefix index) pairs in lane-major, then prefix
    # order -- i.e. ascending plan index within each lane -- kept as flat
    # positions into the row-major level arrays.
    q_max = qualities.max()
    keep = np.flatnonzero(_ceiling(totals, steps - lead, q_max) >= low[:, None])
    lane, prefix = np.divmod(keep, n_b**lead)
    total, buffer = totals.ravel()[keep], buffers.ravel()[keep]
    for k in range(lead, steps):
        download = downloads[lane, k]
        child = _grow(total, buffer, download, penalty[prefix % n_b], qualities, weights)
        if k == steps - 1:
            break
        keep = np.flatnonzero(_ceiling(child, steps - 1 - k, q_max) >= low[lane, None])
        row, choice = np.divmod(keep, n_b)
        total = child.ravel()[keep]
        buffer = _drain(buffer[row], download.ravel()[keep], buffer_cap, chunk_seconds)
        lane, prefix = lane[row], prefix[row] * n_b + choice
    # Per-lane max over the surviving plans (max is exact in any order),
    # then the first plan that reaches it.
    best = np.maximum.reduceat(child.ravel(), np.searchsorted(lane, lanes) * n_b)
    hits = np.flatnonzero(child == best[lane, None])
    hit_lanes = lane[hits // n_b]
    first = hits[np.r_[True, hit_lanes[1:] != hit_lanes[:-1]]]
    return best, prefix[first // n_b] * n_b + first % n_b


def _link_rates(bandwidths_mbps) -> np.ndarray:
    """Payload rates in bytes/s; rejects non-finite or non-positive bandwidths."""
    rates = np.asarray(bandwidths_mbps, dtype=float) * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION
    if not np.all(np.isfinite(rates) & (rates > 0)):
        raise ValueError("bandwidths must be finite and positive")
    return rates


def _start_buffers(start_buffers_s) -> np.ndarray:
    buffers = np.asarray(start_buffers_s, dtype=float)
    if not np.all(np.isfinite(buffers) & (buffers >= 0)):
        raise ValueError("start buffers must be finite and non-negative")
    return buffers


def _window_best(
    video: Video,
    start_chunks,
    bandwidth_windows,
    start_buffers_s,
    prev_qualities,
    weights: QoEWeights,
) -> tuple[np.ndarray, np.ndarray]:
    """Validated :func:`best_plans` of a batch of equal-length windows."""
    bandwidths = np.asarray(bandwidth_windows, dtype=float)
    if bandwidths.ndim != 2:
        raise ValueError("bandwidth_windows must be (batch, window)")
    steps = bandwidths.shape[1]
    if steps == 0:
        raise ValueError("empty bandwidth window")
    if steps > 8:
        raise ValueError("exhaustive search limited to 8 chunks; use optimal_plan_dp")
    rates = _link_rates(bandwidths)
    buffers = _start_buffers(start_buffers_s)
    starts = np.asarray(start_chunks, dtype=int)
    if np.any(starts < 0) or np.any(starts + steps > video.n_chunks):
        raise ValueError("bandwidth schedule runs past the end of the video")
    sizes = video.chunk_sizes_bytes[starts[:, None] + np.arange(steps)]
    downloads = sizes / rates[:, :, None] + LINK_RTT_S  # (B, steps, n_bitrates)
    qualities = _quality_table(video, weights)
    prev_values = [0.0 if q is None else qualities[q] for q in prev_qualities]
    has_prev = [q is not None for q in prev_qualities]
    return best_plans(
        downloads, buffers, prev_values, has_prev, qualities, weights,
        BUFFER_CAP_S, video.chunk_seconds,
    )


def optimal_qoe_exhaustive(
    video: Video,
    start_chunk: int,
    bandwidths_mbps,
    start_buffer_s: float,
    prev_quality: int | None,
    weights: QoEWeights = QoEWeights(),
) -> tuple[float, list[int]]:
    """Exact max QoE over ``len(bandwidths_mbps)`` chunks; returns (qoe, plan).

    A one-lane :func:`best_plans` search; ties go to the plan that comes
    first in ``itertools.product`` order.  Windows up to ~6 chunks are
    instantaneous.
    """
    best, index = _window_best(
        video, [start_chunk], [bandwidths_mbps], [start_buffer_s], [prev_quality], weights
    )
    steps = len(bandwidths_mbps)
    plan = np.unravel_index(int(index[0]), (video.n_bitrates,) * steps)
    return float(best[0]), [int(q) for q in plan]


def optimal_qoe_exhaustive_batch(
    video: Video,
    start_chunks,
    bandwidth_windows,
    start_buffers_s,
    prev_qualities,
    weights: QoEWeights = QoEWeights(),
) -> np.ndarray:
    """Exact max QoE for a *batch* of equal-length windows; returns ``(B,)``.

    One :func:`best_plans` search over all ``B`` windows (one per
    parallel env).  Each row b solves the same problem as::

        optimal_qoe_exhaustive(video, start_chunks[b], bandwidth_windows[b],
                               start_buffers_s[b], prev_qualities[b], weights)[0]

    and produces the identical value, bit for bit: rows are independent
    lanes, and pruned or not, the kernel's best is the exact float max of
    the same per-plan totals.  ``prev_qualities`` entries may be ``None``
    (no previous chunk, i.e. an episode's first window).
    """
    return _window_best(
        video, start_chunks, bandwidth_windows, start_buffers_s, prev_qualities, weights
    )[0]


def optimal_qoe_exhaustive_mixed(
    video: Video,
    start_chunks,
    bandwidth_windows,
    start_buffers_s,
    prev_qualities,
    weights: QoEWeights = QoEWeights(),
) -> np.ndarray:
    """Exact max QoE for a batch of *ragged* windows; returns ``(B,)``.

    Generalizes :func:`optimal_qoe_exhaustive_batch` to windows of mixed
    lengths -- the state a lockstep batch of adversary envs is in right
    after a staggered reset, when some envs are still inside their first
    ``opt_window`` chunks.  Windows are grouped by length and each group
    runs one :func:`best_plans` search; results come back in input
    order.  Every entry is bitwise equal to::

        optimal_qoe_exhaustive(video, start_chunks[b], bandwidth_windows[b],
                               start_buffers_s[b], prev_qualities[b], weights)[0]
    """
    n = len(bandwidth_windows)
    values = np.empty(n)
    by_len: dict[int, list[int]] = {}
    for i, window in enumerate(bandwidth_windows):
        by_len.setdefault(len(window), []).append(i)
    for idxs in by_len.values():
        values[idxs] = optimal_qoe_exhaustive_batch(
            video,
            start_chunks=[start_chunks[i] for i in idxs],
            bandwidth_windows=[bandwidth_windows[i] for i in idxs],
            start_buffers_s=[start_buffers_s[i] for i in idxs],
            prev_qualities=[prev_qualities[i] for i in idxs],
            weights=weights,
        )
    return values


def optimal_plan_dp(
    video: Video,
    bandwidths_mbps,
    weights: QoEWeights = QoEWeights(),
    buffer_step_s: float = 0.25,
    start_buffer_s: float = 0.0,
) -> tuple[float, list[int]]:
    """Full-video offline optimum via backward DP over (chunk, prev, buffer).

    The buffer is discretized to ``buffer_step_s`` (new buffers round
    *down*, so the returned value is a slightly conservative bound and the
    plan is feasible).  Returns ``(total_qoe, plan)``.
    """
    bandwidths = np.asarray(bandwidths_mbps, dtype=float)
    if len(bandwidths) != video.n_chunks:
        raise ValueError(
            f"need one bandwidth per chunk ({video.n_chunks}), got {len(bandwidths)}"
        )
    downloads = video.chunk_sizes_bytes / _link_rates(bandwidths)[:, None] + LINK_RTT_S
    _start_buffers(start_buffer_s)
    qualities = np.array([weights.quality(b) for b in video.bitrates_kbps])
    nq = video.n_bitrates
    grid = np.arange(0.0, BUFFER_CAP_S + buffer_step_s, buffer_step_s)
    nb = len(grid)

    # value[p, b]: best attainable QoE from the current chunk onward, given
    # previous quality p (nq == "no previous chunk" sentinel) and buffer b.
    value = np.zeros((nq + 1, nb))
    choice = np.zeros((video.n_chunks, nq + 1, nb), dtype=np.int8)
    for i in reversed(range(video.n_chunks)):
        # gains[q, b]: quality & rebuffer part + future value, before smoothness.
        gains = np.empty((nq, nb))
        for q in range(nq):
            dl = downloads[i, q]
            rebuffer = np.maximum(dl - grid, 0.0)
            new_buffer = np.minimum(np.maximum(grid - dl, 0.0) + video.chunk_seconds,
                                    BUFFER_CAP_S)
            idx = np.minimum((new_buffer / buffer_step_s).astype(int), nb - 1)
            gains[q] = (
                qualities[q] - weights.rebuffer_penalty * rebuffer + value[q, idx]
            )
        new_value = np.empty((nq + 1, nb))
        for p in range(nq + 1):
            if p < nq:
                smooth = weights.smooth_penalty * np.abs(qualities - qualities[p])
            else:
                smooth = np.zeros(nq)
            scored = gains - smooth[:, None]
            best_q = np.argmax(scored, axis=0)
            new_value[p] = scored[best_q, np.arange(nb)]
            choice[i, p] = best_q
        value = new_value

    # Forward pass: execute the stored decisions with the *exact* buffer.
    plan: list[int] = []
    buffer = float(start_buffer_s)
    prev = nq
    total = 0.0
    prev_bitrate: float | None = None
    for i in range(video.n_chunks):
        b_idx = min(int(buffer / buffer_step_s), nb - 1)
        q = int(choice[i, prev, b_idx])
        dl = downloads[i, q]
        rebuffer = max(dl - buffer, 0.0)
        buffer = min(max(buffer - dl, 0.0) + video.chunk_seconds, BUFFER_CAP_S)
        gain = qualities[q] - weights.rebuffer_penalty * rebuffer
        if prev_bitrate is not None:
            gain -= weights.smooth_penalty * abs(qualities[q] - prev_bitrate)
        total += gain
        prev_bitrate = qualities[q]
        plan.append(q)
        prev = q
    return float(total), plan
