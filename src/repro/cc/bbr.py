"""BBRv1: model-based congestion control (startup/drain/probe_bw/probe_rtt).

Where the loss-based policies infer congestion from duplicate ACKs —
exactly the signal packet reordering forges — BBR builds an explicit model
of the path: the windowed-max *bottleneck bandwidth* from delivery-rate
samples (:mod:`repro.cc.rate`) and the windowed-min *round-trip propagation
time* from the shared RFC 6298 estimator.  The sender paces at
``pacing_gain × BtlBw`` (enforced by the sender's timer wakeups
between bursts) and caps inflight at ``cwnd_gain × BDP``.  Duplicate ACKs
and SACK holes still trigger the mechanism's retransmissions, but the
*rate* barely moves — which is precisely the property the cc × reordering
campaign family measures against Reno's dupACK fragility.

The state machine follows the BBR draft (and the net-rl ``BBRv1``
exemplar): STARTUP at 2/ln2 gain until the bandwidth filter plateaus for
three rounds, DRAIN below unity gain until inflight falls to one BDP,
then PROBE_BW's eight-phase gain cycle, with PROBE_RTT visits when the
RTprop sample goes stale.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import CongestionControl
from repro.cc.rate import DeliveryRateSampler, WindowedMax
from repro.net.constants import MSS
from repro.sim.time import MS, SEC

#: 2/ln2 — fills the pipe in the same number of RTTs as slow start.
STARTUP_GAIN = 2.885
DRAIN_GAIN = 1.0 / STARTUP_GAIN
#: PROBE_BW's gain cycle: probe up, drain the queue, then cruise.
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: Bandwidth max-filter window, in packet-timed rounds.
BW_WINDOW_ROUNDS = 10
#: RTprop min-filter window and PROBE_RTT dwell time.
RTPROP_WINDOW = 10 * SEC
PROBE_RTT_DURATION = 200 * MS
#: Floor that keeps ACK clocking alive through PROBE_RTT.
MIN_CWND = 4 * MSS


class BbrV1CC(CongestionControl):
    """BBRv1 over the delivery-rate sampler and the shared RTT estimator."""

    name = "bbr"

    def __init__(self, config, rtt, *, tracer=None, flow=None):
        super().__init__(config, rtt, tracer=tracer, flow=flow)
        self.sampler = DeliveryRateSampler()
        self.bw_filter = WindowedMax(BW_WINDOW_ROUNDS)
        self._state = "startup"
        self.pacing_gain = STARTUP_GAIN
        self.cwnd_gain = STARTUP_GAIN
        #: Packet-timed round counter and the seq that closes the round.
        self.round_count = 0
        self._round_end_seq = 0
        # STARTUP plateau detection.
        self.filled_pipe = False
        self._full_bw = 0.0
        self._full_bw_count = 0
        # PROBE_BW gain cycling.
        self._cycle_index = 0
        self._cycle_started = 0
        # RTprop tracking (int ns; 0 = no sample yet).
        self.rtprop = 0
        self._rtprop_stamp = 0
        self._probe_rtt_until = 0

    # -- outputs ---------------------------------------------------------------

    def pacing_rate_gbps(self) -> Optional[float]:
        bw = self.bw_filter.get()
        if bw is None:
            return None
        return self.pacing_gain * bw

    def delivery_rate_gbps(self) -> Optional[float]:
        return self.sampler.rate_gbps

    def state(self) -> str:
        return self._state

    def bdp_bytes(self, gain: float = 1.0) -> Optional[int]:
        """``gain × BtlBw × RTprop`` in bytes, or None before estimates."""
        bw = self.bw_filter.get()
        if bw is None or self.rtprop <= 0:
            return None
        return int(gain * bw * self.rtprop / 8)

    # -- hooks -----------------------------------------------------------------

    def on_send(self, end_seq: int, nbytes: int, now: int, *,
                app_limited: bool = False) -> None:
        self.sampler.app_limited = app_limited
        self.sampler.on_send(end_seq, now)

    def on_ack(self, acked: int, now: int, *, ack: int, snd_nxt: int,
               flight: int, in_recovery: bool,
               recovery_exit: bool) -> None:
        sample = self.sampler.on_ack(ack, acked, now)
        round_advanced = ack >= self._round_end_seq
        if round_advanced:
            self.round_count += 1
            self._round_end_seq = snd_nxt
        if sample is not None:
            current = self.bw_filter.get()
            if not self.sampler.app_limited or current is None \
                    or sample > current:
                self.bw_filter.update(sample, self.round_count)
        self._update_rtprop(now)
        self._advance_machine(now, flight, round_advanced)
        self._set_cwnd(acked)

    def on_recovery_start(self, flight: int, now: int) -> None:
        # Loss (or reordering forged as loss) does not move the model:
        # the mechanism retransmits, the rate holds.  Count the episode.
        super().on_recovery_start(flight, now)

    def on_rto(self, flight: int, now: int) -> None:
        # Genuine silence: restart conservatively; the bandwidth filter
        # survives, so one ACK restores the operating point.
        self.sampler.clear_marks()
        self.cwnd = MSS

    # -- model maintenance -----------------------------------------------------

    def _update_rtprop(self, now: int) -> None:
        latest = self.rtt.latest
        if latest is None:
            return
        expired = now - self._rtprop_stamp > RTPROP_WINDOW
        if latest <= self.rtprop or self.rtprop == 0 or expired:
            self.rtprop = latest
            self._rtprop_stamp = now

    def _advance_machine(self, now: int, flight: int,
                         round_advanced: bool) -> None:
        if not self.filled_pipe and round_advanced \
                and not self.sampler.app_limited:
            bw = self.bw_filter.get()
            if bw is not None:
                if bw >= self._full_bw * 1.25:
                    self._full_bw = bw
                    self._full_bw_count = 0
                else:
                    self._full_bw_count += 1
                    if self._full_bw_count >= 3:
                        self.filled_pipe = True
        state = self._state
        if state == "startup" and self.filled_pipe:
            self._transition(now, "drain", pacing=DRAIN_GAIN,
                             cwnd=STARTUP_GAIN)
        elif state == "drain":
            bdp = self.bdp_bytes()
            if bdp is not None and flight <= bdp:
                self._enter_probe_bw(now)
        elif state == "probe_bw":
            if self.rtprop > 0 and now - self._cycle_started > self.rtprop:
                self._cycle_index = (self._cycle_index + 1) \
                    % len(PROBE_BW_GAINS)
                self._cycle_started = now
                self.pacing_gain = PROBE_BW_GAINS[self._cycle_index]
            if self._rtprop_stamp and \
                    now - self._rtprop_stamp > RTPROP_WINDOW:
                self._probe_rtt_until = now + max(PROBE_RTT_DURATION,
                                                  self.rtprop)
                self._transition(now, "probe_rtt", pacing=1.0, cwnd=1.0)
        elif state == "probe_rtt":
            if now >= self._probe_rtt_until:
                self._rtprop_stamp = now
                if self.filled_pipe:
                    self._enter_probe_bw(now)
                else:
                    self._transition(now, "startup", pacing=STARTUP_GAIN,
                                     cwnd=STARTUP_GAIN)

    def _enter_probe_bw(self, now: int) -> None:
        self._cycle_index = 0
        self._cycle_started = now
        self._transition(now, "probe_bw",
                         pacing=PROBE_BW_GAINS[0], cwnd=2.0)

    def _transition(self, now: int, new_state: str, *, pacing: float,
                    cwnd: float) -> None:
        old = self._state
        self._state = new_state
        self.pacing_gain = pacing
        self.cwnd_gain = cwnd
        self._trace_state(now, old, new_state)

    def _set_cwnd(self, acked: int) -> None:
        if self._state == "probe_rtt":
            self.cwnd = MIN_CWND
            return
        target = self.bdp_bytes(self.cwnd_gain)
        if target is None:
            # No model yet: grow with the ACK clock (startup-like).
            self.cwnd += acked
        elif self.cwnd < target:
            self.cwnd = min(self.cwnd + acked, target)
        else:
            self.cwnd = max(target, MIN_CWND)
