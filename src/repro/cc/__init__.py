"""repro.cc — pluggable congestion control for the TCP sender.

The sender (:mod:`repro.tcp.sender`) is the mechanism; the classes here
are the policies.  Select one with ``TcpConfig.cc``:

======== ===========================================================
``reno``   NewReno + legacy ECN-gated DCTCP reaction (the default —
           byte-identical to the pre-split sender).
``cubic``  RFC 8312 cubic window growth, β = 0.7 loss response.
``dctcp``  Canonical RFC 8257 DCTCP (always-on ECN reaction, α₀ = 1).
``bbr``    BBRv1 model-based rate control (startup/drain/probe_bw/
           probe_rtt), paced by sim engine timers.
======== ===========================================================

See docs/transport.md for the mechanism/policy contract and the
``cc_reordering`` campaign family that sweeps these policies against
reordering intensity.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.cc.base import CongestionControl
from repro.cc.bbr import BbrV1CC
from repro.cc.cubic import CubicCC
from repro.cc.dctcp import DctcpCC
from repro.cc.rate import DeliveryRateSampler, WindowedMax
from repro.cc.reno import RenoCC
from repro.cc.rtt import RttEstimator

#: ``TcpConfig.cc`` selector -> policy class.
CC_ALGORITHMS: Dict[str, Type[CongestionControl]] = {
    RenoCC.name: RenoCC,
    CubicCC.name: CubicCC,
    DctcpCC.name: DctcpCC,
    BbrV1CC.name: BbrV1CC,
}


def make_cc(name: str, config, rtt: RttEstimator, *, tracer=None,
            flow=None) -> CongestionControl:
    """Instantiate the policy registered under ``name``."""
    try:
        cls = CC_ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown congestion control {name!r}; "
            f"choose from {sorted(CC_ALGORITHMS)}"
        ) from None
    return cls(config, rtt, tracer=tracer, flow=flow)


__all__ = [
    "BbrV1CC",
    "CC_ALGORITHMS",
    "CongestionControl",
    "CubicCC",
    "DctcpCC",
    "DeliveryRateSampler",
    "RenoCC",
    "RttEstimator",
    "WindowedMax",
    "make_cc",
]
