"""Self-time arithmetic, hook robustness and the bisection count of the tracer.

    python3 -m pytest perfbench/tests
"""
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from hooks import bisection_steps  # noqa: E402
from tracer import Hook, Tracer, self_times, summarize  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    # root [0, 10] has children a [1, 4] and b [5, 6]; a has child c [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # children [1, 4] and [3, 6] overlap on [3, 4]; [8, 12] sticks out past 10
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    # covered: [1, 6] + [8, 10] = 7
    assert self_times(starts, ends, parents)[0] == pytest.approx(3.0)


def test_self_times_sum_to_root_duration_on_a_nested_tree():
    starts = [0.0, 0.5, 0.75, 1.0, 2.0, 2.5]
    ends = [4.0, 1.5, 1.25, 1.125, 3.0, 2.75]
    parents = [-1, 0, 1, 2, 0, 4]
    assert sum(self_times(starts, ends, parents)) == pytest.approx(4.0)


def test_summarize_reports_self_and_outer_time_per_span_name():
    tracer = Tracer()
    tracer.names[:] = ["mc.loop", "testing.result", "testing.result", "linalg.rank"]
    tracer.starts[:] = [0.0, 1.0, 1.5, 2.0]
    tracer.ends[:] = [4.0, 3.0, 2.5, 2.25]
    tracer.parents[:] = [-1, 0, 1, 2]
    s = summarize(tracer)
    assert s["mc.loop"]["self"] == pytest.approx(2.0)
    assert s["testing.result"]["count"] == 2
    assert s["testing.result"]["self"] == pytest.approx(1.0 + 0.75)
    # the nested testing.result sits inside another testing span
    assert s["testing.result"]["outer"] == pytest.approx(2.0)
    assert s["linalg.rank"]["outer"] == pytest.approx(0.25)


def test_missing_hook_is_recorded_not_raised(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")
    mod.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = Tracer()
    tracer.install([Hook(mod.__name__, "present", "fake.present"),
                    Hook(mod.__name__, "renamed_away", "fake.gone"),
                    Hook("perfbench_no_such_module", "f", "fake.f")])
    assert mod.present(1) == 2
    assert tracer.names == ["fake.present"]
    assert tracer.missing == ["perfbench_fake_layer.renamed_away", "perfbench_no_such_module.f"]
    tracer.uninstall()
    mod.present(1)
    assert tracer.names == ["fake.present"]


def test_callback_that_no_longer_fits_marks_the_hook_missing(monkeypatch):
    mod = types.ModuleType("perfbench_fake_shape")
    mod.f = lambda: object()
    monkeypatch.setitem(sys.modules, mod.__name__, mod)

    def count_defined(tracer, args, result):
        tracer.counts["defined"] += result.defined  # the result lost this field

    tracer = Tracer()
    tracer.install([Hook(mod.__name__, "f", "fake.f", after=count_defined)])
    mod.f()
    assert tracer.missing == ["perfbench_fake_shape.f"]
    assert len(tracer.names) == 1


def test_bisection_steps_count_new_midpoints_after_the_bracket():
    # size at 0, doubling 2 -> 4 -> 8, then (hi, mid) pairs: 8/4, 4/2, 4/3, final hi twice
    cutoffs = [0.0, 2.0, 4.0, 8.0, 8.0, 4.0, 4.0, 2.0, 4.0, 3.0, 3.0, 3.0, 3.0]
    assert bisection_steps(cutoffs, 8.0) == 3
    assert bisection_steps([0.0, 0.0], 0.0) == 0
    assert bisection_steps([0.0, 1.0], 5.0) is None
