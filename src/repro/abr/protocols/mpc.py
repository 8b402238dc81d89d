"""Robust MPC (Yin et al. 2015) -- the paper's "re-implementation of the
MPC ABR protocol".

At each chunk the controller:

1. predicts throughput as the harmonic mean of the last ``window``
   measured samples, discounted by the maximum recent prediction error
   (the "robust" part),
2. exhaustively evaluates every bitrate plan over a ``horizon``-chunk
   lookahead against the predicted throughput, simulating the buffer, and
3. executes the first step of the best plan.

The plan search is one lane of the shared exact kernel,
:func:`~repro.abr.protocols.optimal.best_plans`, with the buffer left
uncapped, so a full 48-chunk playback costs a few milliseconds.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.abr.protocols.base import AbrPolicy
from repro.abr.protocols.optimal import best_plans
from repro.abr.protocols.rate_based import harmonic_mean_mbps, positive_int
from repro.abr.qoe import QoEWeights
from repro.abr.simulator import LINK_RTT_S, PACKET_PAYLOAD_PORTION, AbrObservation
from repro.abr.video import Video

__all__ = ["MPC"]


class MPC(AbrPolicy):
    """Robust model-predictive ABR control."""

    name = "mpc"

    def __init__(
        self,
        horizon: int = 5,
        window: int = 5,
        robust: bool = True,
        weights: QoEWeights = QoEWeights(),
    ) -> None:
        self.horizon = positive_int("horizon", horizon)
        self.window = positive_int("window", window)
        self.robust = robust
        self.weights = weights
        self._video: Video | None = None
        self._qualities: np.ndarray | None = None
        # maxlen evicts the oldest error in O(1); the list-based
        # ``pop(0)`` this replaces shifted the whole window every chunk.
        self._errors: deque[float] = deque(maxlen=self.window)
        self._last_prediction: float | None = None

    def reset(self, video: Video) -> None:
        self._video = video
        # The per-bitrate quality scores depend only on the video's
        # bitrate ladder, not the playback state: computed once here
        # instead of once per chunk in :meth:`select`.
        self._qualities = np.array(
            [self.weights.quality(b) for b in video.bitrates_kbps]
        )
        self._errors = deque(maxlen=self.window)
        self._last_prediction = None

    # -- prediction -----------------------------------------------------------

    def _predict_throughput(self, observation: AbrObservation) -> float:
        measured = harmonic_mean_mbps(observation.throughput_history, self.window)
        if measured <= 0:
            return 0.0
        if self.robust and self._last_prediction is not None:
            actual = observation.last_throughput_mbps()
            if actual > 0:
                self._errors.append(abs(self._last_prediction - actual) / actual)
        discount = 1.0 + (max(self._errors) if self._errors else 0.0)
        prediction = measured / discount
        self._last_prediction = prediction
        return prediction

    # -- plan search -----------------------------------------------------------

    def select(self, observation: AbrObservation) -> int:
        video = self._video
        if video is None:
            raise RuntimeError("policy not reset with a video")
        predicted = self._predict_throughput(observation)
        if predicted <= 0:
            return 0  # no information yet: start conservative

        steps = min(self.horizon, observation.chunks_remaining)
        rate = predicted * 1e6 / 8.0 * PACKET_PAYLOAD_PORTION  # bytes/s
        return int(self._best_first_steps(steps, [observation], [rate])[0])

    def _best_first_steps(self, steps: int, observations, rates) -> np.ndarray:
        """First step of the best ``steps``-chunk plan per observation.

        One :func:`best_plans` lane per observation, each downloading at
        its predicted ``rates`` entry (bytes/s) with the buffer uncapped;
        :class:`~repro.abr.batched.BatchedMPC` runs many lanes at once,
        :meth:`select` one.  A lane's first best plan is the same whether
        the kernel scans or prunes, so batched decisions equal serial ones.
        """
        video = self._video
        qualities = self._qualities
        chunks = np.array([obs.chunk_index for obs in observations])
        sizes = video.chunk_sizes_bytes[chunks[:, None] + np.arange(steps)]
        _, index = best_plans(
            sizes / np.asarray(rates)[:, None, None] + LINK_RTT_S,
            [obs.buffer_seconds for obs in observations],
            [0.0 if obs.last_quality is None else qualities[obs.last_quality]
             for obs in observations],
            [obs.last_quality is not None for obs in observations],
            qualities,
            self.weights,
            np.inf,
            video.chunk_seconds,
        )
        return index // video.n_bitrates ** (steps - 1)
