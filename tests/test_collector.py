"""The cyclic garbage collector around the record builders: paused, restored, nothing to free."""
import gc
import sys
import threading

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
from decoylink.bounds import collector_paused
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


def test_pause_restores_the_collector(enabled):
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled() == enabled


def test_pause_restores_the_collector_after_an_exception(enabled):
    with pytest.raises(ZeroDivisionError):
        with collector_paused():
            1 / 0
    assert gc.isenabled() == enabled


def test_overlapping_pauses_that_exit_out_of_order(enabled):
    first, second = collector_paused(), collector_paused()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert not gc.isenabled()
    second.__exit__(None, None, None)
    assert gc.isenabled() == enabled


def test_pauses_in_two_threads_are_counted_together(enabled):
    entered, release = threading.Event(), threading.Event()

    def other():
        with collector_paused():
            entered.set()
            release.wait(10)

    thread = threading.Thread(target=other)
    thread.start()
    assert entered.wait(10)
    with collector_paused():
        release.set()
        thread.join(10)
        assert not thread.is_alive()
        # the other thread's pause, which began first, ended first
        assert not gc.isenabled()
    assert gc.isenabled() == enabled


def test_a_disable_made_during_a_pause_is_undone_when_it_ends():
    # the pause cannot tell a gc.disable() from another thread from its own
    was = gc.isenabled()
    gc.enable()
    pause = collector_paused()
    try:
        pause.__enter__()
        thread = threading.Thread(target=gc.disable)
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
        pause.__exit__(None, None, None)
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def test_an_enable_made_during_a_pause_stands(enabled):
    with collector_paused():
        gc.enable()
    assert gc.isenabled()
    (gc.enable if enabled else gc.disable)()


def test_pauses_from_many_threads_keep_their_count(enabled):
    # a lost update of the shared count would turn the collector on inside a
    # pause, or leave it off after the last one
    seen_on = []

    def worker():
        for _ in range(3000):
            with collector_paused():
                if gc.isenabled():
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
