"""Single-photon estimation and key-rate bounds against independent oracles."""
import math
import random
import warnings

import numpy as np
import pytest

from decoylink import (
    ChannelModel,
    DecoyLinkError,
    EstimationInfeasibleError,
    IntensitySet,
    ProtocolParams,
    ReceiverModel,
    ValidationError,
    binary_entropy,
    estimate_single_photon,
    evaluate_link,
    gain_total,
    qber_i,
    qber_total,
    skr_approx,
    skr_lower_bound,
    transmittance,
    yield_background,
    yield_i,
)
from decoylink import model
from decoylink.bounds import link_table


def receiver(p_ap=0.0, p_dc=6e-7, e_prime=0.02, eta_bob=0.1):
    return ReceiverModel.identical(
        2,
        p_ap,
        dark_count_prob_total=p_dc,
        intrinsic_error=e_prime,
        detector_efficiency=eta_bob,
    )


def channel(loss_db):
    return ChannelModel(transmission_loss_db=loss_db)


# Weak decoys (nu1, p_dc) so faint that the yield bound is not a finite
# number at mu = 0.48 and 10 dB: nan at 1e-310; nan through a zero
# denominator mu nu1 - nu1^2 at 5e-324; inf at 1e-310 without dark counts.
FAINT_DECOYS = [(1e-310, 6e-7), (5e-324, 6e-7), (1e-310, 0.0)]
# Links whose bounds cannot be resolved though the yield bound is a number:
# at 3200 dB without dark counts the gains and the bound are subnormal (e1
# came out 0.0 where the exact value is 0.0314); at mu = 800, e^mu overflows.
UNRESOLVABLE_LINKS = [
    (receiver(0.02, p_dc=0.0), channel(3200.0), IntensitySet(0.48, 0.05)),
    (receiver(p_dc=1e-7), channel(60.0), IntensitySet(800.0, 0.05)),
]


def oracle_h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def oracle_gain_qber(eta, p_ap, e_prime, p_dc, mean_photon, e0=0.5):
    y0 = (1.0 + p_ap) * p_dc
    detected = -math.expm1(-eta * mean_photon)
    q = y0 + detected * (1.0 + p_ap)
    e = (e0 * y0 + (e_prime + e0 * p_ap) * detected) / q
    return q, e


def oracle_y1_bounds(q_mu, e_mu, q_nu1, e_nu1, y0, mu, nu1, e0=0.5):
    y1 = (mu / (mu * nu1 - nu1**2)) * (
        q_nu1 * math.exp(nu1)
        - q_mu * math.exp(mu) * nu1**2 / mu**2
        - (mu**2 - nu1**2) / mu**2 * y0
    )
    e1 = (e_nu1 * q_nu1 * math.exp(nu1) - e0 * y0) / (y1 * nu1)
    return y1, e1


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_boundary_continuity(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_direct_logarithm_oracle(self):
        # oracle: -x log2 x - (1-x) log2(1-x) at x = 0.11
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            binary_entropy(-0.01)
        with pytest.raises(ValidationError):
            binary_entropy(1.01)

    def test_symmetry_and_maximum(self):
        xs = [k / 200.0 for k in range(201)]
        for x in xs:
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-14)
            assert binary_entropy(x) <= 1.0

    def test_matches_oracle_on_grid(self):
        for k in range(1, 100):
            x = k / 100.0
            assert binary_entropy(x) == pytest.approx(oracle_h2(x), rel=1e-13)


class TestEstimateSinglePhoton:
    def test_bounds_sandwich_forward_model(self):
        r = receiver(0.0)
        ch = channel(5.0)
        mu, nu1 = 0.48, 0.05
        est = estimate_single_photon(
            gain_total(r, ch, mu),
            qber_total(r, ch, mu),
            gain_total(r, ch, nu1),
            qber_total(r, ch, nu1),
            yield_background(r),
            mu,
            nu1,
        )
        assert est.y1_lower <= yield_i(r, ch, 1)
        assert est.e1_upper >= qber_i(r, ch, 1)
        assert not est.clamped

    def test_q1_identity(self):
        r = receiver(0.004)
        ch = channel(10.0)
        mu, nu1 = 0.48, 0.05
        est = estimate_single_photon(
            gain_total(r, ch, mu),
            qber_total(r, ch, mu),
            gain_total(r, ch, nu1),
            qber_total(r, ch, nu1),
            yield_background(r),
            mu,
            nu1,
        )
        assert est.q1_lower == est.y1_lower * mu * math.exp(-mu)

    def test_degenerate_decoy_spacing(self):
        with pytest.raises(ValidationError):
            estimate_single_photon(0.01, 0.02, 0.01, 0.02, 1e-6, 0.48, 0.48)
        with pytest.raises(ValidationError):
            estimate_single_photon(0.01, 0.02, 0.01, 0.02, 1e-6, 0.48, 0.0)

    def test_noiseless_error_bound_is_zero(self):
        r = ReceiverModel.identical(
            2, 0.0, dark_count_prob_total=0.0, intrinsic_error=0.0
        )
        ch = channel(5.0)
        mu, nu1 = 0.48, 0.05
        est = estimate_single_photon(
            gain_total(r, ch, mu),
            qber_total(r, ch, mu),
            gain_total(r, ch, nu1),
            qber_total(r, ch, nu1),
            yield_background(r),
            mu,
            nu1,
        )
        assert abs(est.e1_upper) <= 1e-12

    def test_infeasible_raises(self):
        # weak-decoy gain far below the signal's multiphoton share
        with pytest.raises(EstimationInfeasibleError):
            estimate_single_photon(0.5, 0.02, 1e-9, 0.02, 1e-9, 0.6, 0.05)
        links = [
            (receiver(p_dc=p_dc), channel(10.0), IntensitySet(0.48, nu1))
            for nu1, p_dc in FAINT_DECOYS
        ]
        for r, ch, intensities in links + UNRESOLVABLE_LINKS:
            mu, nu1 = intensities.signal_mu, intensities.weak_decoy_nu1
            with pytest.raises(EstimationInfeasibleError, match="not positive and finite"):
                estimate_single_photon(
                    gain_total(r, ch, mu),
                    qber_total(r, ch, mu),
                    gain_total(r, ch, nu1),
                    qber_total(r, ch, nu1),
                    yield_background(r),
                    mu,
                    nu1,
                )

    def test_clamping_flagged(self):
        est = estimate_single_photon(0.9, 0.02, 0.89, 0.02, 0.0, 1.0, 0.5)
        assert est.clamped
        assert est.y1_lower == 1.0

    def test_sandwich_over_random_draws(self):
        rng = random.Random(20260811)
        for _ in range(200):
            loss = rng.uniform(0.0, 25.0)
            p_ap = rng.uniform(0.0, 0.05)
            e_prime = rng.uniform(0.0, 0.05)
            nu1 = rng.uniform(1e-12, 0.2)
            mu = rng.uniform(nu1 * (1.0 + 1e-12), 1.0)
            r = receiver(p_ap, e_prime=e_prime)
            ch = channel(loss)
            est = estimate_single_photon(
                gain_total(r, ch, mu),
                qber_total(r, ch, mu),
                gain_total(r, ch, nu1),
                qber_total(r, ch, nu1),
                yield_background(r),
                mu,
                nu1,
            )
            assert est.y1_lower <= yield_i(r, ch, 1)
            assert est.e1_upper >= qber_i(r, ch, 1)


class TestSkrLowerBound:
    PROTOCOL = ProtocolParams()

    def test_no_single_photon_contribution(self):
        floored, raw = skr_lower_bound(0.01, 0.05, 0.0, 0.02, self.PROTOCOL)
        assert raw == pytest.approx(-0.5 * 1.16 * 0.01 * binary_entropy(0.05), rel=1e-14)
        assert raw < 0.0
        assert floored == 0.0

    def test_error_free_limit(self):
        floored, raw = skr_lower_bound(0.01, 0.0, 0.004, 0.0, self.PROTOCOL)
        assert raw == 0.5 * 0.004
        assert floored == raw

    def test_saturated_single_photon_error_gives_zero_key(self):
        floored, raw = skr_lower_bound(0.01, 0.05, 0.004, 0.6, self.PROTOCOL)
        assert raw < 0.0
        assert floored == 0.0

    def test_floor_exactly_at_nonpositive_raw(self):
        rng = random.Random(2)
        for _ in range(100):
            q_mu = rng.uniform(1e-6, 0.05)
            e_mu = rng.uniform(0.0, 0.4)
            q1 = rng.uniform(0.0, q_mu)
            e1 = rng.uniform(0.0, 0.45)
            floored, raw = skr_lower_bound(q_mu, e_mu, q1, e1, self.PROTOCOL)
            assert floored == (raw if raw > 0.0 else 0.0)
            assert floored >= 0.0


class TestSkrApprox:
    PROTOCOL = ProtocolParams()

    def test_afterpulse_free_reduction_is_exact(self):
        r = receiver(0.0)
        ch = channel(21.0)
        eta = transmittance(r, ch)
        for mu in (0.3, 0.48, 0.8):
            h = binary_entropy(0.02)
            reference = -(eta * mu) * 1.16 * h + (eta * mu) * math.exp(-mu) * (1.0 - h)
            assert skr_approx(r, ch, mu, self.PROTOCOL) == reference

    def test_error_free_limit(self):
        r = ReceiverModel.identical(
            2, 0.0, dark_count_prob_total=0.0, intrinsic_error=0.0
        )
        ch = channel(21.0)
        eta = transmittance(r, ch)
        mu = 0.5
        assert skr_approx(r, ch, mu, self.PROTOCOL) == eta * mu * math.exp(-mu)

    def test_warns_outside_validity_region(self):
        r = receiver(0.0, eta_bob=0.3)
        with pytest.warns(RuntimeWarning):
            skr_approx(r, channel(0.0), 0.5, self.PROTOCOL)

    def test_silent_inside_validity_region(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            skr_approx(receiver(0.008), channel(21.0), 0.5, self.PROTOCOL)

    def test_agrees_with_exact_single_photon_rate(self):
        # at 21 dB the approximation tracks the full bound (with exact
        # single-photon yield and error substituted) to within 10%
        r = receiver(0.008)
        ch = channel(21.0)
        eta = transmittance(r, ch)
        e_det = (0.02 + 0.5 * 0.008) / 1.008
        # optimal intensity for that error rate, via an independent bisection
        rhs = 1.16 * oracle_h2(e_det) / (1.0 - oracle_h2(e_det))
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (1.0 - mid) * math.exp(-mid) > rhs:
                lo = mid
            else:
                hi = mid
        mu = 0.5 * (lo + hi)
        q_mu = gain_total(r, ch, mu)
        e_mu = qber_total(r, ch, mu)
        y1 = yield_i(r, ch, 1)
        e1 = qber_i(r, ch, 1)
        q1 = y1 * mu * math.exp(-mu)
        exact = -1.16 * q_mu * oracle_h2(e_mu) + q1 * (1.0 - oracle_h2(e1))
        approx = skr_approx(r, ch, mu, self.PROTOCOL)
        assert approx == pytest.approx(exact, rel=0.10)


class TestEvaluateLink:
    PROTOCOL = ProtocolParams()

    def test_matches_independent_key_rate_oracle(self):
        # defaults at 0 dB: forward model, decoy bounds and the key rate all
        # rebuilt from scratch here and compared at 1e-12 relative
        r = receiver(0.008, e_prime=0.005)
        ch = channel(0.0)
        metrics = evaluate_link(r, ch, IntensitySet(0.48, 0.038), self.PROTOCOL)
        eta = 0.1
        q_mu, e_mu = oracle_gain_qber(eta, 0.008, 0.005, 6e-7, 0.48)
        q_nu, e_nu = oracle_gain_qber(eta, 0.008, 0.005, 6e-7, 0.038)
        y0 = 1.008 * 6e-7
        y1, e1 = oracle_y1_bounds(q_mu, e_mu, q_nu, e_nu, y0, 0.48, 0.038)
        rate = 0.5 * (
            -1.16 * q_mu * oracle_h2(e_mu)
            + y1 * 0.48 * math.exp(-0.48) * (1.0 - oracle_h2(e1))
        )
        assert metrics.skr_lower > 0.0
        assert metrics.skr_lower == pytest.approx(rate, rel=1e-12)

    def test_infeasible_link_reports_reason(self):
        # an overdriven signal on a lossy link: the multiphoton share of the
        # signal gain swamps the weak decoy and the yield bound goes negative;
        # then the weak decoys whose bound is nan or inf, and the links whose
        # bounds cannot be resolved
        cases = [(receiver(0.0), channel(40.0), IntensitySet(6.0, 0.038))]
        cases += [
            (receiver(p_dc=p_dc), channel(10.0), IntensitySet(0.48, nu1))
            for nu1, p_dc in FAINT_DECOYS
        ]
        cases += UNRESOLVABLE_LINKS
        for r, ch, intensities in cases:
            metrics = evaluate_link(r, ch, intensities, self.PROTOCOL)
            assert metrics.reason == "estimation_infeasible"
            assert metrics.estimate is None
            assert metrics.skr_raw is None
            assert metrics.skr_lower == 0.0

    def test_physical_ranges(self):
        rng = random.Random(17)
        for _ in range(50):
            r = receiver(
                rng.uniform(0.0, 0.05),
                p_dc=rng.uniform(1e-8, 1e-5),
                e_prime=rng.uniform(0.0, 0.05),
            )
            metrics = evaluate_link(
                r, channel(rng.uniform(0.0, 25.0)), IntensitySet(0.48, 0.038),
                self.PROTOCOL,
            )
            assert 0.0 < metrics.q_mu <= 1.0
            assert 0.0 <= metrics.e_mu <= 0.5
            assert metrics.skr_lower >= 0.0

    def test_skr_nonincreasing_in_afterpulsing(self):
        rates = []
        for k in range(26):
            p_ap = 0.05 * k / 25.0
            metrics = evaluate_link(
                receiver(p_ap), channel(5.0), IntensitySet(0.48, 0.05), self.PROTOCOL
            )
            rates.append(metrics.skr_lower)
        assert rates[0] > 0.0
        for lo, hi in zip(rates[1:], rates):
            assert hi >= lo

    def test_approx_consistency_regression_at_zero_afterpulsing(self):
        # factoring out (1 + p_ap) changes nothing at p_ap = 0: the value
        # equals the plain approximation with the intrinsic error rate
        rng = random.Random(23)
        for _ in range(20):
            e_prime = rng.uniform(0.001, 0.05)
            loss = rng.uniform(5.0, 30.0)
            mu = rng.uniform(0.1, 1.0)
            r = receiver(0.0, e_prime=e_prime)
            ch = channel(loss)
            eta = transmittance(r, ch)
            h = binary_entropy(e_prime)
            reference = -(eta * mu) * 1.16 * h + (eta * mu) * math.exp(-mu) * (1.0 - h)
            assert skr_approx(r, ch, mu, self.PROTOCOL) == reference


class TestLinkTable:
    """The array kernel against the scalar closed forms it vectorizes."""

    PROTOCOL = ProtocolParams()

    def test_matches_scalar_closed_forms_on_random_grid(self):
        rng = random.Random(2005)
        nodes = []
        for _ in range(400):
            r = receiver(
                rng.uniform(0.0, 1.0),
                p_dc=rng.uniform(0.0, 1e-5),
                e_prime=rng.uniform(0.0, 0.1),
            )
            nodes.append((r, channel(rng.uniform(0.0, 50.0)),
                          rng.uniform(0.2, 6.0), rng.uniform(0.001, 0.12)))
        table = link_table(
            np.array([model.aggregate_afterpulse(r) for r, _, _, _ in nodes]),
            np.array([r.intrinsic_error for r, _, _, _ in nodes]),
            np.array([r.dark_count_prob_total for r, _, _, _ in nodes]),
            np.array([transmittance(r, ch) for r, ch, _, _ in nodes]),
            np.array([mu for _, _, mu, _ in nodes]),
            np.array([nu1 for _, _, _, nu1 in nodes]),
            0.5,
            self.PROTOCOL,
        )

        def close(name, i, expected):
            actual = table.values[name][i]
            assert abs(actual - expected) <= 1e-12 * abs(expected), (name, i)

        kinds = set()
        for i, (r, ch, mu, nu1) in enumerate(nodes):
            p_ap = model.aggregate_afterpulse(r)
            e_prime = r.intrinsic_error
            close("p_ap", i, p_ap)
            close("e_detector", i, model.effective_baseline_error(e_prime, 0.5, p_ap))
            close("visibility", i, model.visibility(e_prime, 0.5, p_ap))
            if e_prime > 0.0:
                close("baseline_error_change", i,
                      model.baseline_error_change(e_prime, 0.5, p_ap))
            y0 = model.yield_background(r)
            q_mu = gain_total(r, ch, mu)
            e_mu = qber_total(r, ch, mu)
            q_nu1 = gain_total(r, ch, nu1)
            e_nu1 = qber_total(r, ch, nu1)
            for name, expected in (("y0", y0), ("q_mu", q_mu), ("e_mu", e_mu),
                                   ("q_nu1", q_nu1), ("e_nu1", e_nu1)):
                close(name, i, expected)
            close("skr_approx", i, skr_approx(r, ch, mu, self.PROTOCOL, warn=False))
            assert not table.domain_error[i]
            try:
                est = estimate_single_photon(q_mu, e_mu, q_nu1, e_nu1, y0, mu, nu1)
            except EstimationInfeasibleError:
                assert table.infeasible[i]
                assert table.values["skr_lower"][i] == 0.0
                kinds.add("infeasible")
                continue
            assert not table.infeasible[i]
            assert table.clamped[i] == est.clamped
            close("y1_lower", i, est.y1_lower)
            close("e1_upper", i, est.e1_upper)
            close("q1_lower", i, est.q1_lower)
            skr_low, skr_raw = skr_lower_bound(
                q_mu, e_mu, est.q1_lower, est.e1_upper, self.PROTOCOL
            )
            close("skr_raw", i, skr_raw)
            close("skr_lower", i, skr_low)
            kinds.add("positive key" if skr_low > 0.0 else "zero key")
        assert kinds == {"infeasible", "positive key", "zero key"}

    def test_domain_errors_match_scalar_exceptions(self):
        # gain above 1, zero gain at both intensities, and nu1 = 0: the
        # table flags each node and rebuilds the scalar model's exception
        r_hot = receiver(0.5, eta_bob=1.0)
        r_dark = receiver(0.0, p_dc=0.0)
        cases = [
            (r_hot, channel(0.0), IntensitySet(3.0, 0.1)),
            (r_dark, ChannelModel(transmission_loss_db=4000.0), IntensitySet(0.48, 0.038)),
            (r_dark, channel(5.0), IntensitySet(0.48, 0.0)),
            (receiver(0.01), channel(5.0), IntensitySet(0.48, 0.0)),
        ]
        for r, ch, intensities in cases:
            with pytest.raises(DecoyLinkError) as scalar:
                mu, nu1 = intensities.signal_mu, intensities.weak_decoy_nu1
                q_mu, e_mu = gain_total(r, ch, mu), qber_total(r, ch, mu)
                q_nu1, e_nu1 = gain_total(r, ch, nu1), qber_total(r, ch, nu1)
                estimate_single_photon(
                    q_mu, e_mu, q_nu1, e_nu1, model.yield_background(r), mu, nu1
                )
            with pytest.raises(type(scalar.value)) as kernel:
                evaluate_link(r, ch, intensities, self.PROTOCOL)
            assert str(kernel.value) == str(scalar.value)
