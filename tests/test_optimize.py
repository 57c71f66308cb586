"""Root finding, key-rate maximization and iso-QBER threshold tracing."""
import math
import re
import sys
import warnings
from dataclasses import replace
from decimal import Decimal
from types import SimpleNamespace
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoylink import (
    ChannelModel,
    ContourPoint,
    DegenerateInputError,
    IntensitySet,
    ModelDomainError,
    NoSolutionError,
    ProtocolParams,
    ReceiverModel,
    ValidationError,
    dark_count_threshold,
    evaluate_link,
    maximize_skr_over_mu,
    qber_total,
    solve_optimal_mu,
    trace_iso_qber_surface,
)
from decoylink import optimize
from decoylink.bounds import mu_core
from decoylink.model import transmittance
from decoylink.optimize import _HALVINGS, ABS_TOLERANCE, DARK_COUNT_CAP, maximize_nodes
from divergences import optimal_mu_root, printed, qber_slack, total_qber

PROTOCOL = ProtocolParams()


def receiver(p_ap=0.0, p_dc=6e-7, e_prime=0.02, eta_bob=0.1):
    return ReceiverModel.identical(
        2,
        p_ap,
        dark_count_prob_total=p_dc,
        intrinsic_error=e_prime,
        detector_efficiency=eta_bob,
    )


def oracle_h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def oracle_root(e_det, f=1.16, iters=100):
    rhs = f * oracle_h2(e_det) / (1.0 - oracle_h2(e_det))
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (1.0 - mid) * math.exp(-mid) > rhs:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolveOptimalMu:
    def test_residual_below_tolerance_across_error_rates(self):
        for k in range(50):
            e_det = 1e-4 + (0.09 - 1e-4) * k / 49.0
            result = solve_optimal_mu(e_det, PROTOCOL)
            assert result.residual < 1e-10
            # direct substitution into the condition
            h = oracle_h2(e_det)
            rhs = 1.16 * h / (1.0 - h)
            assert abs((1.0 - result.mu) * math.exp(-result.mu) - rhs) < 1e-10
            assert 0.0 < result.mu < 1.0

    def test_against_independent_bisection_oracle(self):
        # frozen from the oracle: root at e_det = 0.03, f = 1.16
        result = solve_optimal_mu(0.03, PROTOCOL)
        assert abs(result.mu - 0.526242256991736) < 1e-6
        assert abs(result.mu - oracle_root(0.03)) < 1e-6

    def test_agrees_with_the_50_digit_lambert_w_root(self):
        """Within 1e-13 root + 2^-52 of 1 - W0(e r) on 400 error rates and at the
        solvability edge, where mu -> 0; the 400 print as the root's rounded 10 digits."""
        f = PROTOCOL.ec_efficiency
        with mpmath.workdps(50):
            # r = f H2(e) / (1 - H2(e)) reaches 1 where H2(e) = 1 / (1 + f)
            e_boundary = float(mpmath.findroot(
                lambda x: -(x * mpmath.log(x) + (1 - x) * mpmath.log1p(-x)) / mpmath.log(2)
                - 1 / (1 + mpmath.mpf(f)), 0.1,
            ))
        grid = [0.001 + (0.09 - 0.001) * k / 399 for k in range(400)]
        edge = [e_boundary * (1.0 - 10.0 ** -k) for k in range(3, 16)]
        for e_det in grid + edge:
            result = solve_optimal_mu(e_det, PROTOCOL)
            root = optimal_mu_root(e_det, f)
            assert abs(Decimal(result.mu) - root) <= Decimal(1e-13) * root + Decimal(2.0 ** -52)
            assert result.residual <= 2.0 ** -50
            assert not result.boundary
            if e_det in grid:
                assert format(result.mu, ".10g") == printed(root)
        assert solve_optimal_mu(edge[-1], PROTOCOL).mu < 1e-14

    def test_zero_error_boundary(self):
        result = solve_optimal_mu(0.0, PROTOCOL)
        assert result.boundary
        assert result.mu == 1.0
        assert result.residual == 0.0

    def test_a_nan_right_side_has_no_solution(self):
        # f H2(0) with an infinite f is NaN: no optimum, never a NaN mu
        with pytest.raises(NoSolutionError):
            solve_optimal_mu(0.0, SimpleNamespace(ec_efficiency=math.inf))

    def test_error_rate_too_high(self):
        with pytest.raises(NoSolutionError):
            solve_optimal_mu(0.1, PROTOCOL)
        with pytest.raises(NoSolutionError):
            solve_optimal_mu(0.5, PROTOCOL)

    def test_solvability_boundary(self):
        # entropy level where the condition's right side crosses 1
        target = 1.0 / (1.0 + 1.16)
        lo, hi = 0.0, 0.5
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if oracle_h2(mid) < target:
                lo = mid
            else:
                hi = mid
        e_boundary = 0.5 * (lo + hi)
        with pytest.raises(NoSolutionError):
            solve_optimal_mu(e_boundary * 1.001, PROTOCOL)
        assert solve_optimal_mu(e_boundary * 0.999, PROTOCOL).mu > 0.0


class TestMaximizeSkr:
    def test_agrees_with_closed_form_condition(self):
        # tight decoy spacing, negligible background, small transmittance:
        # the direct argmax approaches the closed-form optimum
        ch = ChannelModel(transmission_loss_db=20.0)
        for e_prime in (0.005, 0.02):
            r = receiver(0.0, p_dc=1e-12, e_prime=e_prime)
            result = maximize_skr_over_mu(r, ch, 0.01, PROTOCOL)
            assert result.reason is None
            assert abs(result.mu - oracle_root(e_prime)) < 0.02

    def test_positive_rate_at_zero_loss(self):
        r = receiver(0.0, e_prime=0.005)
        result = maximize_skr_over_mu(r, ChannelModel(transmission_loss_db=0.0),
                                      0.038, PROTOCOL)
        assert result.skr > 0.0

    def test_noise_dominated_link_returns_zero_key(self):
        result = maximize_skr_over_mu(
            receiver(0.0), ChannelModel(transmission_loss_db=80.0), 0.038, PROTOCOL
        )
        assert result.skr == 0.0
        assert result.reason == "no_positive_key"

    def test_local_maximum_certificate(self):
        r = receiver(0.004)
        ch = ChannelModel(transmission_loss_db=10.0)
        result = maximize_skr_over_mu(r, ch, 0.05, PROTOCOL)

        def rate(mu):
            return evaluate_link(r, ch, IntensitySet(mu, 0.05), PROTOCOL).skr_lower

        for delta in (-1e-3, 1e-3):
            assert rate(result.mu + delta) <= result.skr + 1e-12

    # The widest bracket (nu1 near 0) and the nu1 of the 5 dB curve.
    @pytest.mark.parametrize("nu1", [1e-300, 0.05])
    def test_search_ends_within_44_probes(self, monkeypatch, nu1):
        # One seed-grid probe for 32 nodes, one first probe at both inner
        # points, then one per step: a step keeps a fraction 0.618 of a
        # bracket at most 2 * 1.5 / 63 wide, so 42 steps reach
        # ABS_TOLERANCE. The guard fails a search that never ends.
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            if len(calls) > 100:
                raise RuntimeError("the intensity search did not end within 100 probes")
            return mu_core(*args, **kwargs)

        monkeypatch.setattr(optimize, "mu_core", counted)
        p_ap = np.geomspace(1e-6, 1.0, 32)
        search = maximize_nodes(
            p_ap, np.array(0.02), np.array(6e-7), np.array(0.01), np.array(nu1), 0.5, PROTOCOL
        )
        assert not search.errors
        assert len(calls) <= 44

    def test_two_steps_per_probe_visit_the_points_of_one(self, monkeypatch):
        # At most _LOOKAHEAD_NODES nodes, a golden-section probe takes this
        # step's point and both the next step can take: every point of the
        # one-step search, bit for bit, in about half as many probes.
        probes = []

        def recorded(mu, *args, **kwargs):
            probes.append({x.hex() for x in mu.ravel().tolist()})
            return mu_core(mu, *args, **kwargs)

        monkeypatch.setattr(optimize, "mu_core", recorded)

        def search(lookahead_nodes):
            probes.clear()
            with patch.object(optimize, "_LOOKAHEAD_NODES", lookahead_nodes):
                maximize_nodes(
                    np.geomspace(1e-6, 1.0, 32), np.array(0.02), np.array(6e-7),
                    np.array(0.01), np.array(0.05), 0.5, PROTOCOL,
                )
            return len(probes), set().union(*probes)

        one_step, visited = search(0)
        two_steps, probed = search(optimize._LOOKAHEAD_NODES)
        assert visited <= probed
        assert two_steps <= one_step // 2 + 2

    def test_tolerance_is_read_at_each_call(self):
        # the search stops once its bracket is no wider than ABS_TOLERANCE
        r = receiver(0.004)
        ch = ChannelModel(transmission_loss_db=10.0)
        with patch.object(optimize, "ABS_TOLERANCE", 1e-3):
            coarse = maximize_skr_over_mu(r, ch, 0.05, PROTOCOL)
        full = maximize_skr_over_mu(r, ch, 0.05, PROTOCOL)
        assert coarse.mu != full.mu
        assert abs(coarse.mu - full.mu) < 1e-3

    def test_bracket_must_clear_weak_decoy(self):
        # nu1 + MU_BRACKET_MARGIN rounds to nu1
        with pytest.raises(ValidationError, match="must exceed the weak-decoy intensity 1e"):
            maximize_skr_over_mu(
                receiver(), ChannelModel(transmission_loss_db=5.0), 1e300, PROTOCOL
            )

    def test_weak_decoy_above_bracket_top_rejected(self):
        with pytest.raises(ValidationError, match="empty signal-intensity bracket"):
            maximize_skr_over_mu(
                receiver(), ChannelModel(transmission_loss_db=5.0), 2.0, PROTOCOL
            )


INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(r, ch, nu1, tol=1e-10):
    """A scalar reference of ``maximize_skr_over_mu``: (mu, skr).

    Plain floats: the 64-point seed grid over (nu1 + 1e-6, 1.5), the bracket
    of the grid points either side of the first best one, then golden-section
    steps until the bracket is within ``tol``. The objective is
    ``evaluate_link``'s skr_lower, -inf where the link model raises.
    """
    def skr(mu):
        try:
            return evaluate_link(r, ch, IntensitySet(mu, nu1), PROTOCOL).skr_lower
        except ModelDomainError:
            return -math.inf

    lo, hi = nu1 + 1e-6, 1.5
    grid = [lo + (hi - lo) * k / 63 for k in range(64)]
    values = [skr(mu) for mu in grid]
    best = values.index(max(values))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, 63)]
    c, d = hi - INVPHI * (hi - lo), lo + INVPHI * (hi - lo)
    fc, fd = skr(c), skr(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - INVPHI * (hi - lo)
            fc = skr(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + INVPHI * (hi - lo)
            fd = skr(d)
    mu = 0.5 * (lo + hi)
    key = skr(mu)
    return mu, key if key > 0.0 else 0.0


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


# Links from lossless ones whose gain passes 1 in the bracket (the -inf
# objective) to ones with no positive key.
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    st.integers(1, 4), finite(0.0, 0.6), finite(0.0, 1e-5), finite(0.0, 0.1), finite(0.01, 1.0),
    finite(0.0, 30.0), finite(1e-100, 0.6),
)
def test_search_equals_a_scalar_golden_section(
    detectors, p_ap, p_dc, e_prime, eta_bob, loss_db, nu1
):
    r = ReceiverModel.identical(
        detectors, p_ap, dark_count_prob_total=p_dc, intrinsic_error=e_prime,
        detector_efficiency=eta_bob,
    )
    ch = ChannelModel(transmission_loss_db=loss_db)
    result = maximize_skr_over_mu(r, ch, nu1, PROTOCOL)
    mu, skr = golden_section(r, ch, nu1)
    assert (result.mu.hex(), result.skr.hex()) == (mu.hex(), skr.hex())


def closed_form_threshold(loss_db, p_ap, e_prime, mean_photon, target, eta_bob=0.1, e0=0.5):
    # exact algebraic solution of E(p_dc) = target, independent of the solver
    eta = eta_bob * 10.0 ** (-loss_db / 10.0)
    detected = 1.0 - math.exp(-eta * mean_photon)
    signal_error = e_prime + e0 * p_ap
    return (
        detected
        * ((1.0 + p_ap) * target - signal_error)
        / ((1.0 + p_ap) * (e0 - target))
    )


class TestDarkCountThreshold:
    def test_floor_above_target_is_infeasible(self):
        point = dark_count_threshold(0.0, 0.2, 10.5, 0.09, receiver(), 0.48)
        assert not point.feasible
        assert point.dark_count_prob is None
        assert point.achieved_qber is None

    def test_forward_reevaluation_hits_target(self):
        point = dark_count_threshold(0.0, 0.02, 10.5, 0.09, receiver(), 0.48)
        assert point.feasible
        r = ReceiverModel.identical(
            2, 0.0, dark_count_prob_total=point.dark_count_prob, intrinsic_error=0.02
        )
        channel = ChannelModel(transmission_loss_db=10.5)
        achieved = qber_total(r, channel, 0.48)
        assert abs(achieved - 0.09) < 1e-6
        assert abs(point.achieved_qber - 0.09) < 1e-6
        # the solver's own guarantee, against the QBER at 50 digits
        exact = total_qber(0.0, 0.02, 0.5, transmittance(r, channel), 0.48, point.dark_count_prob)
        assert abs(exact - 0.09) < ABS_TOLERANCE + qber_slack(0.09)

    def test_threshold_below_a_200_step_bisection(self):
        # a signal of 1e-100 puts the threshold near 2.7e-103, below the
        # 0.1/2^200 that a 200-step bisection can reach (it ended at 3.1e-62
        # with a QBER of 0.5); the values are the seed code's scalar
        # bisection run to _HALVINGS steps
        r = receiver(0.01)
        point = dark_count_threshold(0.01, 0.02, 10.0, 0.125, r, 1e-100)
        assert point == ContourPoint(
            p_ap=0.01,
            intrinsic_error=0.02,
            loss_db=10.0,
            dark_count_prob=2.6732673285552276e-103,
            achieved_qber=0.12500000005392908,
            feasible=True,
            converged=True,
        )
        eta = transmittance(r, ChannelModel(transmission_loss_db=10.0))
        exact = total_qber(0.01, 0.02, 0.5, eta, 1e-100, point.dark_count_prob)
        assert abs(exact - 0.125) < ABS_TOLERANCE + qber_slack(0.125)

    def test_subnormal_signal_is_not_converged(self):
        # At 0 dB and detector efficiency 1 the signal is detected with
        # probability mu. At 1e-310 the search converges; at 1e-315 and
        # 1e-320 the signal gain is subnormal, and the QBER steps past the
        # tolerance between the threshold and the next float above it.
        r = receiver(0.01, eta_bob=1.0)
        channel = ChannelModel(transmission_loss_db=0.0)
        assert dark_count_threshold(0.01, 0.02, 0.0, 0.125, r, 1e-310).converged
        for mu, achieved in ((1e-315, 0.12499999758757009), (1e-320, 0.12475859405175743)):
            point = dark_count_threshold(0.01, 0.02, 0.0, 0.125, r, mu)
            assert point.feasible and not point.converged
            assert point.achieved_qber == achieved
            above = math.nextafter(point.dark_count_prob, 1.0)
            assert qber_total(replace(r, dark_count_prob_total=above), channel, mu) > (
                0.125 + ABS_TOLERANCE
            )

    def test_matches_closed_form_oracle(self):
        # frozen from the oracle: 0.0007288309301667241 at 10.5 dB
        point = dark_count_threshold(0.0, 0.02, 10.5, 0.09, receiver(), 0.48)
        assert point.dark_count_prob == pytest.approx(0.0007288309301667241, abs=1e-9)
        for loss, p_ap, e_prime in ((10.5, 0.0, 0.02), (21.0, 0.01, 0.03), (5.0, 0.05, 0.01)):
            point = dark_count_threshold(p_ap, e_prime, loss, 0.09, receiver(), 0.48)
            oracle = closed_form_threshold(loss, p_ap, e_prime, 0.48, 0.09)
            assert point.dark_count_prob == pytest.approx(oracle, abs=1e-9)

    def test_higher_loss_lowers_threshold(self):
        near = dark_count_threshold(0.008, 0.02, 10.5, 0.09, receiver(), 0.48)
        far = dark_count_threshold(0.008, 0.02, 21.0, 0.09, receiver(), 0.48)
        assert far.dark_count_prob < near.dark_count_prob

    def test_monotone_in_afterpulsing_and_intrinsic_error(self):
        thresholds_p = [
            dark_count_threshold(p_ap, 0.02, 10.5, 0.09, receiver(), 0.48).dark_count_prob
            for p_ap in (0.0, 0.01, 0.05, 0.1)
        ]
        for lo, hi in zip(thresholds_p[1:], thresholds_p):
            assert hi >= lo
        thresholds_e = [
            dark_count_threshold(0.008, e, 10.5, 0.09, receiver(), 0.48).dark_count_prob
            for e in (0.0, 0.02, 0.05, 0.08)
        ]
        for lo, hi in zip(thresholds_e[1:], thresholds_e):
            assert hi >= lo

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValidationError):
            dark_count_threshold(0.0, 0.02, 0.0, 0.4, receiver(), 0.48)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            dark_count_threshold(0.0, 0.02, 10.5, 0.6, receiver(), 0.48)
        with pytest.raises(ValidationError):
            dark_count_threshold(0.0, 0.02, 10.5, 0.09, receiver(), 0.0)
        # as gain_total and qber_total reject it, not as a gain above 1
        with pytest.raises(ValidationError, match="^mean_photon must be finite, got inf$"):
            dark_count_threshold(0.0, 0.02, 10.5, 0.09, receiver(), math.inf)


@pytest.mark.parametrize(
    "root", [0.0, math.ulp(0.0), 1e-310, sys.float_info.min, 1e-100, 0.05, DARK_COUNT_CAP]
)
def test_halvings_end_on_adjacent_floats(root):
    # threshold_nodes' bracket arithmetic, moving toward ``root`` as the QBER
    # would toward a threshold there: within _HALVINGS steps no float is
    # left strictly between the bracket's ends
    lo, hi = 0.0, DARK_COUNT_CAP
    mid = 0.5 * (lo + hi)
    steps = 0
    while math.nextafter(lo, hi) < hi:
        lo, hi = (mid, hi) if mid < root else (lo, mid)
        mid = 0.5 * (lo + hi)
        steps += 1
    assert lo <= root <= hi and steps <= _HALVINGS == 1073


class TestContourPoint:
    def test_fields_and_defaults(self):
        assert ContourPoint._fields == (
            "p_ap", "intrinsic_error", "loss_db", "dark_count_prob", "achieved_qber",
            "feasible", "converged",
        )
        assert ContourPoint._field_defaults == {"converged": True}

    def test_fields_cannot_be_set(self):
        point = dark_count_threshold(0.008, 0.02, 10.5, 0.09, receiver(), 0.48)
        with pytest.raises(AttributeError):
            point.dark_count_prob = 0.0
        assert point._replace(dark_count_prob=0.0).dark_count_prob == 0.0


class TestTraceIsoQberSurface:
    def test_all_infeasible_grid(self):
        points = trace_iso_qber_surface(
            (0.0, 0.05), (0.2, 0.3), 10.5, 0.09, receiver(), 0.48
        )
        assert len(points) == 4
        assert all(not p.feasible for p in points)

    # (feasible, converged): a feasible node, an infeasible one, and one whose
    # signal gain is subnormal, where no float threshold meets the target
    @pytest.mark.parametrize(
        "p_ap, e_prime, loss_db, target, eta_bob, mu, kind",
        [(0.008, 0.02, 10.5, 0.09, 0.1, 0.48, (True, True)),
         (0.0, 0.2, 10.5, 0.09, 0.1, 0.48, (False, True)),
         (0.01, 0.02, 0.0, 0.125, 1.0, 1e-315, (True, False))],
        ids=["feasible", "infeasible", "subnormal-signal"],
    )
    def test_single_node_matches_threshold_op(
        self, p_ap, e_prime, loss_db, target, eta_bob, mu, kind
    ):
        r = receiver(eta_bob=eta_bob)
        [point] = trace_iso_qber_surface((p_ap,), (e_prime,), loss_db, target, r, mu)
        direct = dark_count_threshold(p_ap, e_prime, loss_db, target, r, mu)
        assert repr(point) == repr(direct)
        assert (point.feasible, point.converged) == kind

    # The ids name the bisection's former step budgets: under 200 halvings
    # every feasible node of this grid converged, under 3 none did. With no
    # budget left, a node fails to converge only where the signal gain is
    # subnormal, as at mu = 1e-315.
    @pytest.mark.parametrize(
        "mu, converged", [(0.48, True), (1e-315, False)], ids=["200", "3"]
    )
    def test_points_are_the_threshold_arrays_node_for_node(self, mu, converged):
        # e' = 0.1 is infeasible at every p_ap
        p_values, e_values = (0.0, 0.01, 0.4), (0.0, 0.02, 0.1)
        args = (p_values, e_values, 21.0, 0.09, receiver(0.01), mu)
        points = trace_iso_qber_surface(*args)
        search = optimize.threshold_nodes(*args)
        expected = []
        for k in range(9):
            feasible = bool(search.feasible[k])
            expected.append(ContourPoint._make((
                p_values[k // 3], e_values[k % 3], 21.0,
                float(search.dark_count[k]) if feasible else None,
                float(search.achieved[k]) if feasible else None,
                feasible,
                bool(search.converged[k]) if feasible else True,
            )))
        # repr tells a Python float from a numpy scalar
        assert repr(points) == repr(expected)
        assert [tuple(map(type, p)) for p in points] == [
            tuple(map(type, p)) for p in expected
        ]
        assert {type(p) for p in points} == {ContourPoint}
        assert {(p.feasible, p.converged) for p in points} == {
            (True, converged), (False, True)
        }

    def test_row_major_order_and_monotonicity(self):
        p_values = [0.1 * k / 9.0 for k in range(10)]
        e_values = [0.05 * k / 9.0 for k in range(10)]
        points = trace_iso_qber_surface(p_values, e_values, 10.5, 0.09, receiver(), 0.48)
        assert len(points) == 100
        grid = {}
        for idx, point in enumerate(points):
            assert point.p_ap == p_values[idx // 10]
            assert point.intrinsic_error == e_values[idx % 10]
            grid[(idx // 10, idx % 10)] = point.dark_count_prob
        # threshold nonincreasing along both axes wherever feasible
        for i in range(10):
            for j in range(10):
                if grid[(i, j)] is None:
                    continue
                if i + 1 < 10 and grid[(i + 1, j)] is not None:
                    assert grid[(i + 1, j)] <= grid[(i, j)]
                if j + 1 < 10 and grid[(i, j + 1)] is not None:
                    assert grid[(i, j + 1)] <= grid[(i, j)]

    def test_deterministic(self):
        args = ((0.0, 0.01), (0.01, 0.02), 10.5, 0.09, receiver(), 0.48)
        assert trace_iso_qber_surface(*args) == trace_iso_qber_surface(*args)

    def test_first_failing_node_in_row_major_order_raises(self):
        # messages generated from the scalar per-node bisection
        intrinsic = "intrinsic_error must be in [0, 1], got "
        with pytest.raises(ValidationError, match=re.escape(intrinsic + "1.5")):
            trace_iso_qber_surface((0.0, 0.01), (0.02, 1.5), 10.5, 0.09, receiver(), 0.48)
        # node (0, 1) fails before the rejected p_ap of row 1
        with pytest.raises(ValidationError, match=re.escape(intrinsic + "1.5")):
            trace_iso_qber_surface((0.0, 1.5), (0.02, 1.5), 10.5, 0.09, receiver(), 0.48)
        # both rejected at node (0, 0): p_ap's message comes first
        afterpulse = "afterpulse_prob must be in [0, 1], got "
        with pytest.raises(ValidationError, match=re.escape(afterpulse + "1.5")):
            trace_iso_qber_surface((1.5, 0.0), (-0.1, 0.02), 10.5, 0.09, receiver(), 0.48)
        # a NaN on either axis is rejected by that axis's validator
        with pytest.raises(ValidationError, match=re.escape(afterpulse + "nan")):
            trace_iso_qber_surface((0.0, math.nan), (0.02,), 10.5, 0.09, receiver(), 0.48)
        with pytest.raises(ValidationError, match=re.escape(intrinsic + "nan")):
            trace_iso_qber_surface((0.0,), (0.02, math.nan), 10.5, 0.09, receiver(), 0.48)
        # a gain of 0.95 without dark counts and 1.05 at the search cap
        with pytest.raises(ModelDomainError, match=re.escape("total gain 1.05 exceeds 1")):
            trace_iso_qber_surface(
                (0.0,), (0.02,), 0.0, 0.09, receiver(eta_bob=1.0), -math.log(0.05)
            )
        # A rejected p_ap of inf, nan or near the float maximum is checked
        # with every other node, silently. At 4000 dB the gain of p_ap = 0 is
        # zero, which fails before a rejected node after it.
        zero_gain = "total gain is zero"
        for p_values, text, error_at_4000_db in [
            ((0.0, math.inf), "inf", (DegenerateInputError, zero_gain)),
            ((0.0, math.nan), "nan", (DegenerateInputError, zero_gain)),
            ((0.0, 1e308), "1e+308", (DegenerateInputError, zero_gain)),
            ((math.inf, 0.0), "inf", (ValidationError, afterpulse + "inf")),
        ]:
            for loss_db, (error, message) in [
                (10.0, (ValidationError, afterpulse + text)), (4000.0, error_at_4000_db)
            ]:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(error, match=re.escape(message)):
                        trace_iso_qber_surface(
                            p_values, (0.02,), loss_db, 0.09, receiver(), 0.48
                        )
