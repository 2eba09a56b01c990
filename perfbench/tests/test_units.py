"""Unit checks of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed  # noqa: E402
from perfbench.series import _seek_round  # noqa: E402


def test_scaled_divides_by_the_bracketing_kernel_timings(monkeypatch):
    host = hostspeed.HostSpeed()
    host.refs[:] = [0.02]
    host.add("op", 0.1)
    host.refs.append(0.04)  # the next timing, after the op
    host.add("op", 0.3)
    monkeypatch.setattr(host, "_kernel", lambda: None)
    scaled = host.scaled("op")  # times the kernel once more for the last op
    assert len(host.refs) == 3
    ref = hostspeed.REFERENCE_S
    assert scaled[0] == pytest.approx(0.1 * ref / 0.03)
    assert scaled[1] == pytest.approx(0.3 * ref * 2 / (0.04 + host.refs[2]))
    assert host.raw("op") == [0.1, 0.3]


@pytest.mark.parametrize("n_steps,key_interval", [(48, 16), (8, 4)])
def test_seek_round_visits_the_middle_of_every_key_block(n_steps, key_interval):
    rng = np.random.default_rng(5)
    rounds = [_seek_round(rng, n_steps, key_interval) for _ in range(20)]
    middles = list(range(key_interval // 2, n_steps, key_interval))
    assert all(sorted(r) == middles for r in rounds)
    assert len({tuple(r) for r in rounds}) > 1  # the seed picks the order
