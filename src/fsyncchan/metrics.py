"""Error-rate accounting and binary-symmetric-channel capacity.

Capacity model: at symbol duration t_s the raw bandwidth is B = 1/t_s bits/s
and a channel with symmetric bit error probability p carries

    C = B * (1 - p*log2(1/p) - (1-p)*log2(1/(1-p)))

with the 0*log2(1/0) = 0 convention.  Raw capacity turns back upward for
p > 0.5, but a channel that errs more often than it succeeds is useless
without re-coding, so the reported capacity is clamped to 0 there; both the
raw and clamped values are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BitStream

__all__ = [
    "ErrorReport",
    "compare_bits",
    "CapacityResult",
    "binary_entropy",
    "capacity",
]


@dataclass(frozen=True)
class ErrorReport:
    """Counts and rates of decoding errors between sent and received bits."""

    n_bits: int
    n_ones: int
    n_zeros: int
    err_1to0: int
    err_0to1: int
    rate_1to0: float
    rate_0to1: float
    p: float  # overall bit error probability


def compare_bits(sent: BitStream, received: BitStream) -> ErrorReport:
    """Positional comparison of two equal-length bit streams.

    Direction rates are relative to the sent symbol counts (1->0 errors over
    sent ones, 0->1 over sent zeros); p is total errors over all bits.
    """
    if len(sent) != len(received):
        raise ValueError(f"length mismatch: sent {len(sent)} vs received {len(received)}")
    if len(sent) == 0:
        raise ValueError("cannot compare empty bit streams")
    s = np.frombuffer(sent, dtype=np.uint8)
    r = np.frombuffer(received, dtype=np.uint8)
    n_ones = int(np.count_nonzero(s))
    n_zeros = len(sent) - n_ones
    err_1to0 = int(np.count_nonzero(s > r))  # a sent 1 read as 0
    err_0to1 = int(np.count_nonzero(s < r))
    return ErrorReport(
        n_bits=len(sent),
        n_ones=n_ones,
        n_zeros=n_zeros,
        err_1to0=err_1to0,
        err_0to1=err_0to1,
        rate_1to0=err_1to0 / n_ones if n_ones else 0.0,
        rate_0to1=err_0to1 / n_zeros if n_zeros else 0.0,
        p=(err_1to0 + err_0to1) / len(sent),
    )


@dataclass(frozen=True)
class CapacityResult:
    bandwidth_bps: float
    p: float
    capacity_bps: float  # clamped: 0 for p >= 0.5
    raw_capacity_bps: float


def binary_entropy(p: float) -> float:
    """H2(p) in bits, with the 0*log2(1/0) = 0 convention at the endpoints."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be within [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    # -p*log2(p) form: log2(1/p) would overflow for subnormal p
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def capacity(ts_us: float, p: float) -> CapacityResult:
    """Capacity of the on-off channel at symbol duration ts_us and error rate p."""
    if not 0 < ts_us < math.inf:  # NaN fails too
        raise ValueError("ts_us must be positive and finite")
    bandwidth = 1e6 / ts_us
    raw = bandwidth * (1.0 - binary_entropy(p))
    clamped = 0.0 if p >= 0.5 else raw
    return CapacityResult(bandwidth_bps=bandwidth, p=p, capacity_bps=clamped, raw_capacity_bps=raw)
