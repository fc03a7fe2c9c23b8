"""The package's own live pair: `calibrate`, `recv` and `send` through
`python -m fsyncchan`, over real fsyncs, at 200 us symbols.

The receiver and the sender each run in a child process pinned to its own
CPU: the lowest two this process may use, the receiver on the higher one.
Marked `hardware`: they run only with FSYNC_HARDWARE_TESTS=1.  Each run
prints its frames recovered and payload bit error rate (run pytest with -s
to see them).
"""

import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from fsyncchan.cli import derive_seed
from fsyncchan.core import BitStream, prbs_sequence
from fsyncchan.metrics import compare_bits

REPO = Path(__file__).resolve().parents[1]
TS_US = 200
FRAMES = 4
PAYLOAD_BITS = 2000
FRAME = ["--ts-us", str(TS_US), "--frame-payload-len", "500", "--payload-bits", str(PAYLOAD_BITS)]


def _cpu_pair() -> tuple[int, int]:
    """(sender CPU, receiver CPU): the lowest two allowed, the receiver higher."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        pytest.skip(f"the pair needs two CPUs to pin its ends apart; only {allowed} allowed")
    return allowed[0], allowed[1]


def _fsyncchan(*args: str) -> list[str]:
    return [sys.executable, "-m", "fsyncchan", *args]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def live_pair(directory: Path, seed: int) -> tuple[int, float | None]:
    """One run of the pair with its files in directory: (frames recovered,
    payload BER), the BER None when recv delivered no payload.  recv stops at
    the first lost frame and then prints no payload."""
    send_cpu, recv_cpu = _cpu_pair()
    send_file, recv_file = directory / "send.dat", directory / "recv.dat"
    for path in (send_file, recv_file):
        path.write_bytes(b"\0" * 4096)
    env = _env()
    calibrated = subprocess.run(
        _fsyncchan("calibrate", "--file", str(recv_file), "--cpu", str(recv_cpu),
                   "--ts-us", str(TS_US)),
        env=env, capture_output=True, text=True, timeout=20, check=True,
    )
    theta_ns = re.search(r"theta_ns=(\d+)", calibrated.stdout).group(1)
    recv = subprocess.Popen(
        _fsyncchan("recv", "--file", str(recv_file), "--cpu", str(recv_cpu), "--theta-ns", theta_ns,
                   "--frames", str(FRAMES), "--max-symbols", "3000", *FRAME),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        time.sleep(0.5)
        subprocess.run(
            _fsyncchan("send", "--file", str(send_file), "--cpu", str(send_cpu),
                       "--seed", str(seed), *FRAME),
            env=env, capture_output=True, text=True, timeout=20, check=True,
        )
        out, err = recv.communicate(timeout=20)
    finally:
        recv.kill()
        recv.wait()
    frames = int(re.search(r"recovered (\d+)", err).group(1))
    ber = None
    if recv.returncode == 0:
        sent = prbs_sequence(PAYLOAD_BITS, derive_seed(seed, "payload"))
        ber = compare_bits(sent, BitStream.from_text(out)).p
    print(f"live pair in {directory}, seed {seed}, theta {theta_ns} ns: "
          f"{frames}/{FRAMES} frames, payload BER {ber}")
    return frames, ber


@pytest.mark.hardware
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the live pair recovers 0 of 4 frames at 200 us: a sender that sleeps on '0' "
    "and a threshold that breaks on the real tail",
)
def test_hw_live_pair_recovers_frames(tmp_path):
    # the median of 3 runs recovers at least 3 of 4 frames, and the runs
    # that deliver every frame read a median payload BER below 0.10
    if tmp_path.stat().st_dev != REPO.stat().st_dev:
        pytest.skip("the pair's files belong on the repo's file system: pass --basetemp there")
    runs = [live_pair(tmp_path, seed) for seed in (1, 2, 3)]
    frames = statistics.median(f for f, _ in runs)
    bers = [ber for _, ber in runs if ber is not None]
    assert frames >= 3, runs
    assert bers and statistics.median(bers) < 0.10, runs


@pytest.mark.hardware
def test_hw_live_pair_on_tmpfs_carries_nothing():
    # tmpfs fsync touches no disk, so there is no channel: no frame, or noise
    if not Path("/dev/shm").is_dir():
        pytest.skip("no /dev/shm")
    with tempfile.TemporaryDirectory(dir="/dev/shm") as directory:
        frames, ber = live_pair(Path(directory), seed=4)
    assert frames == 0 or (ber is not None and ber >= 0.40), (frames, ber)
