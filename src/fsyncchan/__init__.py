"""Covert-channel toolkit over shared-journal fsync latency.

A sender modulates bits by hammering (or withholding) fsync traffic on its
own file; a receiver decodes them from the latency of its own fsync probes,
because commits to a shared filesystem journal serialize.  The package ships
a deterministic simulator of that contention, the on-off-keying modem, error
and capacity metrics, victim-activity analyzers, real-syscall probes, and a
CLI tying them together.
"""

from .core import (
    BitStream,
    ChannelConfig,
    DecisionRule,
    Frame,
    LatencyTrace,
    ProbeMode,
    TraceMeta,
    decode_frames,
    encode_frames,
    frames_to_bits,
    prbs_sequence,
    trace_read,
    trace_write,
)
from .metrics import CapacityResult, ErrorReport, capacity, compare_bits
from .modem import (
    ScheduleBuilder,
    SymbolDecision,
    ThresholdState,
    TraceSource,
    calibrate,
    receive_frame,
    receive_frames,
    receive_symbols,
    send_bits,
)
from .probe import ProbeHandle
from .simchan import (
    ContentionModel,
    LatencyDistribution,
    NoiseDegree,
    NoiseProcess,
    SenderSchedule,
    SimSource,
    cross_disk_model,
    default_model,
    loopback,
    sim_receive,
    sim_transmit,
)

__version__ = "0.1.0"
