"""The p ← p + α(Rt − Rm) marking controller (Eq. 1 of the paper).

The controller watches a TCP sender's acknowledged-byte counter, compares
the measured rate against the guarantee, and adjusts the probability with
which outgoing packets are marked high priority.  If the flow runs below
its guarantee, more of its packets jump the low-priority queue, raising its
rate — a simple integral control loop that converges whenever the high
priority class is not over-committed.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.net.constants import PRIORITY_HIGH, PRIORITY_LOW
from repro.net.packet import Packet
from repro.sim.engine import Engine
from repro.sim.time import US
from repro.tcp.sender import TcpSender


class BandwidthGuaranteeController:
    """Adaptive priority marker for one guaranteed flow.

    Attach by passing :meth:`priority_fn` as the sender's ``priority_fn``
    and calling :meth:`start`.  Rates are normalised to the line rate, as in
    the paper; ``alpha`` defaults to the paper's 0.1.
    """

    def __init__(
        self,
        engine: Engine,
        sender: TcpSender,
        rng: random.Random,
        *,
        target_gbps: float,
        line_rate_gbps: float,
        alpha: float = 0.1,
        update_interval_ns: int = 200 * US,
        smoothing: float = 0.25,
    ):
        if target_gbps < 0 or line_rate_gbps <= 0:
            raise ValueError("rates must be positive")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self._engine = engine
        self._sender = sender
        self._rng = rng
        self.target_gbps = target_gbps
        self.line_rate_gbps = line_rate_gbps
        self.alpha = alpha
        self.update_interval_ns = update_interval_ns
        #: EWMA factor applied to per-interval rate samples.  The paper
        #: measures "for every ACK received"; sampling windows plus smoothing
        #: give the same low-pass behaviour on the simulation clock.
        self.smoothing = smoothing
        #: Probability an outgoing packet is marked high priority.
        self.p = 0.0
        self._rate_ewma_gbps = 0.0
        self._last_acked = 0
        self._running = False
        #: (time, measured_gbps, p) samples for the Figure 1 time series.
        self.trace: List[tuple] = []

    def start(self) -> None:
        """Begin the periodic adaptation loop."""
        if self._running:
            return
        self._running = True
        self._last_acked = self._sender.bytes_acked
        self._engine.post(self.update_interval_ns, self._update)

    def stop(self) -> None:
        """Halt adaptation; the current ``p`` keeps being applied."""
        self._running = False

    def priority_fn(self, packet: Packet) -> int:
        """Marking decision for one outgoing packet."""
        if self.p > 0.0 and self._rng.random() < self.p:
            return PRIORITY_HIGH
        return PRIORITY_LOW

    def measured_gbps(self) -> Optional[float]:
        """Most recent rate sample, or None before the first update."""
        return self.trace[-1][1] if self.trace else None

    def _update(self) -> None:
        if not self._running:
            return
        acked = self._sender.bytes_acked
        sample_gbps = (
            (acked - self._last_acked) * 8 / self.update_interval_ns
        )  # bytes/ns * 8 = Gb/s
        self._last_acked = acked
        self._rate_ewma_gbps += self.smoothing * (sample_gbps - self._rate_ewma_gbps)
        r_target = self.target_gbps / self.line_rate_gbps
        r_measured = self._rate_ewma_gbps / self.line_rate_gbps
        self.p = min(1.0, max(0.0, self.p + self.alpha * (r_target - r_measured)))
        self.trace.append((self._engine.now, self._rate_ewma_gbps, self.p))
        self._engine.post(self.update_interval_ns, self._update)
