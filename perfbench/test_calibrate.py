"""Host-speed rescaling uses the calibration samples near an interval.

Run with ``python3 -m pytest -q perfbench/test_calibrate.py`` from the
repository root.
"""

import pytest

from perfbench.calibrate import NOMINAL_S, WINDOW_NS, HostSpeed
from perfbench.spans import Spans

S = WINDOW_NS // 5


def test_scale_uses_the_median_of_the_samples_near_the_interval():
    speed = HostSpeed(Spans())
    # (start_ns, end_ns, loop seconds): the host halves its speed
    # between the third and the fourth sample.
    speed.samples = [(0, 1, 0.2), (2 * S, 2 * S + 1, 0.21),
                     (4 * S, 4 * S + 1, 0.2), (50 * S, 50 * S + 1, 0.4),
                     (52 * S, 52 * S + 1, 0.41), (54 * S, 54 * S + 1, 0.4)]
    assert speed.scale(S, S + 10) == pytest.approx(NOMINAL_S / 0.2)
    # The same work at half the speed takes twice as long and rescales
    # to the same time.
    assert 10 * speed.scale(S, S + 10) == pytest.approx(
        20 * speed.scale(51 * S, 51 * S + 20))
    # Far from every sample, the nearest one is used alone.
    assert speed.scale(20 * S, 21 * S) == pytest.approx(NOMINAL_S / 0.2)


def test_scale_needs_a_sample():
    with pytest.raises(ValueError):
        HostSpeed(Spans()).scale(0, 1)
