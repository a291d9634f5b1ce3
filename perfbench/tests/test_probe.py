"""Normalization arithmetic of the probe sampler.

    python3 -m pytest perfbench/tests
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from probe import PROBE_REFERENCE_S, Sampler  # noqa: E402


def _sampler(starts, ends, probes):
    sampler = Sampler()
    sampler.starts, sampler.ends, sampler.probes = list(starts), list(ends), list(probes)
    return sampler


def test_each_stretch_is_scaled_by_the_probes_on_its_two_sides():
    # probes at [0, 1], [10, 11], [20, 21], [30, 31]; the unit runs from 5 to 25
    sampler = _sampler([0.0, 10.0, 20.0, 30.0], [1.0, 11.0, 21.0, 31.0], [1.0, 2.0, 3.0, 6.0])
    assert sampler.raw(5.0, 25.0) == pytest.approx(18.0)
    # stretches [5, 10], [11, 20], [21, 25] between probes 0-1, 1-2, 2-3
    want = 5.0 / 1.5 + 9.0 / 2.5 + 4.0 / 4.5
    assert sampler.normalized(5.0, 25.0) == pytest.approx(want * PROBE_REFERENCE_S)


def test_unit_between_two_probes_uses_both():
    sampler = _sampler([0.0, 10.0, 20.0], [1.0, 11.0, 21.0], [1.0, 3.0, 5.0])
    assert sampler.raw(12.0, 13.0) == pytest.approx(1.0)
    assert sampler.normalized(12.0, 13.0) == pytest.approx(PROBE_REFERENCE_S / 4.0)


def test_probe_cut_by_the_unit_edge_counts_only_its_inside_part():
    sampler = _sampler([0.0, 4.0, 20.0], [1.0, 6.0, 21.0], [2.0, 2.0, 2.0])
    assert sampler.raw(5.0, 10.0) == pytest.approx(4.0)
