"""Tests of the benchmark's arithmetic: ``python3 -m pytest perfbench``."""

import pytest

from arith import covered, median, per_job, percentile, self_times


def test_median_is_always_reported():
    assert percentile([3.0], 50) == 3.0
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_tail_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 101)]  # 100 samples
    assert percentile(values, 90) == 90.0       # 10 samples lie beyond it
    with pytest.raises(ValueError):
        percentile(values[:99], 90)             # only 9 beyond it
    with pytest.raises(ValueError):
        percentile(values, 99)


def test_per_job_normalisation():
    assert per_job(12.0, 4) == 3.0
    with pytest.raises(ValueError):
        per_job(1.0, 0)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 2), (1.5, 3), (5, 6)], 0, 10) == pytest.approx(3.0)
    assert covered([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)


def test_self_time_subtracts_children():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),    # child of root
        (2.0, 3.0, 1),    # grandchild: does not reduce the root again
        (5.0, 7.0, 0),    # second child of root
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_calibration_scales_by_the_median_kernel_time_around_each_position():
    from calib import REFERENCE_S, local_scales, scale

    assert scale([REFERENCE_S] * 3) == pytest.approx(1.0)
    assert scale([2 * REFERENCE_S, 2 * REFERENCE_S, 9.0]) == pytest.approx(0.5)
    # The machine halves its speed after the fourth operation: each
    # position is scaled by the kernel times within one position of it.
    samples = [REFERENCE_S] * 4 + [2 * REFERENCE_S] * 4
    assert local_scales(samples, window=1) == pytest.approx([1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5])
