"""Model invariants over randomised inputs (hypothesis, derandomized)."""
import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from decoylink import (
    ChannelModel,
    ContourPoint,
    DecoyLinkError,
    DetectorUnit,
    IntensitySet,
    ProtocolParams,
    ReceiverModel,
    SolverConfig,
    ValidationError,
    evaluate_link,
    qber_i,
    qber_total,
    trace_iso_qber_surface,
    yield_i,
)
from decoylink.optimize import DARK_COUNT_CAP

# Fixed example sequence, so that every run tests the same inputs.
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def receivers(draw, p_ap=st.floats(0.0, 0.2)):
    """A biased array of 1-4 detectors; the biases sum to zero."""
    n = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(-0.3, 0.3), min_size=n - 1, max_size=n - 1))
    return ReceiverModel(
        tuple(DetectorUnit(draw(p_ap), bias) for bias in raw + [-math.fsum(raw)]),
        dark_count_prob_total=draw(st.floats(0.0, 1e-5)),
        intrinsic_error=draw(st.floats(0.0, 0.1)),
        detector_efficiency=draw(st.floats(0.01, 1.0)),
    )


losses = st.floats(0.0, 50.0).map(lambda loss: ChannelModel(transmission_loss_db=loss))


@DETERMINISTIC
@given(
    receivers(),
    losses,
    st.floats(0.01, 1.0),
    st.lists(st.floats(0.0, DARK_COUNT_CAP), min_size=2, max_size=2).map(sorted),
)
def test_qber_non_decreasing_in_dark_counts(r, ch, mu, dark_counts):
    # the bisection's premise: more dark counts never lower the QBER
    low, high = (
        qber_total(replace(r, dark_count_prob_total=p_dc), ch, mu) for p_dc in dark_counts
    )
    assert low <= high


def scalar_threshold(p_ap, e_prime, loss_db, target, template, mu, config):
    """Reference: the per-node bisection over ``qber_total``, one receiver per evaluation."""
    channel = ChannelModel(transmission_loss_db=loss_db)

    def qber_at(p_dc):
        detectors = tuple(replace(det, afterpulse_prob=p_ap) for det in template.detectors)
        receiver = replace(
            template, detectors=detectors, intrinsic_error=e_prime, dark_count_prob_total=p_dc
        )
        return qber_total(receiver, channel, mu)

    if qber_at(0.0) > target:
        return ContourPoint(p_ap, e_prime, loss_db, None, None, False)
    ceiling = qber_at(DARK_COUNT_CAP)
    if ceiling < target:
        raise ValidationError(
            f"target_qber={target!r} not reachable below the dark-count "
            f"search cap {DARK_COUNT_CAP!r} (QBER at cap: {ceiling:g})"
        )
    lo, hi = 0.0, DARK_COUNT_CAP
    mid = 0.5 * (lo + hi)
    achieved = qber_at(mid)
    iterations = 0
    for _ in range(config.max_iterations):
        if abs(achieved - target) < config.abs_tolerance:
            break
        if achieved < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        achieved = qber_at(mid)
        iterations += 1
    converged = abs(achieved - target) < config.abs_tolerance
    return ContourPoint(p_ap, e_prime, loss_db, mid, achieved, True, converged, iterations)


def outcome(solve):
    try:
        return solve()
    except DecoyLinkError as exc:
        return type(exc), str(exc)


@DETERMINISTIC
@given(
    receivers(),
    st.lists(st.floats(0.0, 1.05), min_size=1, max_size=4),
    st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4),
    st.floats(0.0, 50.0),
    st.floats(0.01, 0.3),
    st.floats(0.05, 3.0),
    st.integers(1, 60),
)
def test_surface_equals_scalar_bisection(r, p_values, e_values, loss_db, target, mu, steps):
    config = SolverConfig(max_iterations=steps)
    expected = outcome(
        lambda: [
            scalar_threshold(p, e, loss_db, target, r, mu, config)
            for p in p_values
            for e in e_values
        ]
    )
    assert outcome(
        lambda: trace_iso_qber_surface(p_values, e_values, loss_db, target, r, mu, config)
    ) == expected


@DETERMINISTIC
@given(
    receivers(),
    losses,
    st.floats(0.2, 1.0),
    st.floats(0.001, 0.12),
)
def test_decoy_bounds_enclose_single_photon_values(r, ch, mu, nu1):
    metrics = evaluate_link(r, ch, IntensitySet(mu, nu1), ProtocolParams())
    if metrics.estimate is None:
        return
    assert metrics.estimate.y1_lower <= yield_i(r, ch, 1)
    assert metrics.estimate.e1_upper >= qber_i(r, ch, 1)
