"""The cyclic garbage collector around the record builders: paused, restored, nothing to free."""
import gc
import sys
import threading
from typing import NamedTuple

import pytest

from decoylink import (
    Axis,
    ChannelModel,
    IntensitySet,
    ProtocolParams,
    ReceiverModel,
    SweepSpec,
    maximize_skr_over_mu,
    optimize,
    run_sweep,
    sweep,
    trace_iso_qber_surface,
)
from decoylink.bounds import record_list
from decoylink.model import MU_POLICIES

RECEIVER = ReceiverModel.identical(2, 0.05, dark_count_prob_total=6e-7, intrinsic_error=0.02)
CHANNEL = ChannelModel(transmission_loss_db=10.0)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def enabled(request):
    """The collector on or off, as the parameter says, for the test; restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class Row(NamedTuple):
    index: int
    collector_on: bool


def rows(n=30):
    """The columns of ``n`` Rows, the second read row by row during the build."""
    return range(n), (gc.isenabled() for _ in range(n))


def test_the_builder_returns_rows_as_the_record_type_with_the_collector_off(enabled):
    built = record_list(Row, rows())
    assert [type(row) for row in built] == [Row] * 30
    assert built == [Row(i, False) for i in range(30)]


def test_pause_restores_the_collector(enabled):
    record_list(Row, rows())
    assert gc.isenabled() == enabled


def test_pause_restores_the_collector_after_an_exception(enabled):
    with pytest.raises(ZeroDivisionError):
        record_list(Row, (range(3), (1 / i for i in (1, 0, 1))))
    assert gc.isenabled() == enabled


def test_a_disable_made_during_a_pause_is_undone_when_it_ends():
    # the builder cannot tell a gc.disable() from another thread from its own
    was = gc.isenabled()
    gc.enable()

    def column():
        thread = threading.Thread(target=gc.disable)
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
        yield False

    try:
        record_list(Row, (range(1), column()))
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def test_an_enable_made_during_a_pause_stands(enabled):
    def column():
        gc.enable()
        yield True

    record_list(Row, (range(1), column()))
    assert gc.isenabled()
    (gc.enable if enabled else gc.disable)()


def test_builds_from_many_threads_keep_the_collector_off_and_restore_it(enabled):
    # without the builder's lock, one build turns the collector on inside
    # another, or leaves it off after both
    seen_on = []

    def worker():
        for _ in range(2000):
            if any(row.collector_on for row in record_list(Row, rows(100))):
                seen_on.append(True)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not seen_on
    assert gc.isenabled() == enabled


def sweep_spec(mu_policy):
    # p_ap past 1 fails the link metrics of its nodes
    return SweepSpec(
        RECEIVER, CHANNEL, IntensitySet(0.48, 0.038), ProtocolParams(),
        axes=(Axis("p_ap", 0.0, 1.5, 4), Axis("loss_db", 0.0, 60.0, 3)),
        outputs=("skr_lower", "q_mu", "baseline_error_change"),
        mu_policy=mu_policy,
    )


ENTRY_POINTS = {
    "maximize_skr_over_mu": lambda: maximize_skr_over_mu(
        RECEIVER, CHANNEL, 0.038, ProtocolParams()
    ),
    **{
        f"run_sweep-{policy}": lambda policy=policy: run_sweep(sweep_spec(policy))
        for policy in MU_POLICIES
    },
    # e' = 0.3 is infeasible at every p_ap
    "trace_iso_qber_surface": lambda: trace_iso_qber_surface(
        (0.0, 0.01, 0.4), (0.0, 0.02, 0.3), 21.0, 0.09, RECEIVER, 0.48
    ),
}


def test_sweeps_under_test_fail_nodes():
    for policy in MU_POLICIES:
        assert "model-domain-error" in {r.status for r in run_sweep(sweep_spec(policy))}


# The records hold no reference cycles, so pausing the collector while they
# are built leaves it nothing to free later; neither may anything else a call leaves.
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_entry_points_leave_no_reference_cycles(call):
    call()  # warm-up: anything built once per process
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


# Only the record builds are paused: the nodes are evaluated, and the contour
# searched, with the collector as the caller left it.
def test_the_kernels_run_with_the_collector_as_the_caller_left_it(enabled, monkeypatch):
    seen = []

    def watch(function):
        def watched(*args, **kwargs):
            seen.append(gc.isenabled())
            return function(*args, **kwargs)
        return watched

    monkeypatch.setattr(sweep, "link_table", watch(sweep.link_table))
    monkeypatch.setattr(sweep, "maximize_nodes", watch(sweep.maximize_nodes))
    monkeypatch.setattr(optimize, "threshold_nodes", watch(optimize.threshold_nodes))
    for call in ENTRY_POINTS.values():
        call()
    assert len(seen) == 3 and set(seen) == {enabled}
