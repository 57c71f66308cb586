"""Detector-array and link-model quantities: examples, invariants, validation."""
import math
import random

import pytest

from decoylink import (
    ChannelModel,
    DegenerateInputError,
    DetectorUnit,
    IntensitySet,
    ModelDomainError,
    ProtocolParams,
    ReceiverModel,
    ValidationError,
    aggregate_afterpulse,
    baseline_error_change,
    dark_count_threshold,
    effective_baseline_error,
    gain_total,
    multi_photon_transmittance,
    qber_i,
    qber_total,
    skr_approx,
    trace_iso_qber_surface,
    transmittance,
    visibility,
    yield_background,
    yield_i,
)

ETA_21DB = 0.1 * 10.0 ** -2.1  # detector efficiency 0.1, 21 dB loss


def receiver_two(p_ap=0.0, p_dc=6e-7, e_prime=0.02, eta_bob=0.1):
    return ReceiverModel.identical(
        2,
        p_ap,
        dark_count_prob_total=p_dc,
        intrinsic_error=e_prime,
        detector_efficiency=eta_bob,
    )


def channel(loss_db):
    return ChannelModel(transmission_loss_db=loss_db)


class TestAggregateAfterpulse:
    def test_single_detector_identity(self):
        r = ReceiverModel(
            detectors=(DetectorUnit(0.008, 0.0),),
            dark_count_prob_total=3e-7,
            intrinsic_error=0.02,
        )
        assert aggregate_afterpulse(r) == 0.008

    def test_two_identical_unbiased(self):
        assert aggregate_afterpulse(receiver_two(0.01)) == 0.01

    def test_biased_pair_weighted_sum(self):
        # hand evaluation: (1/2)(1.5 * 0.01 + 0.5 * 0.02) = 0.0125
        r = ReceiverModel(
            detectors=(DetectorUnit(0.01, 0.5), DetectorUnit(0.02, -0.5)),
            dark_count_prob_total=6e-7,
            intrinsic_error=0.02,
        )
        assert aggregate_afterpulse(r) == pytest.approx(0.0125, rel=1e-15)

    def test_convex_combination_bounds(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 6)
            biases = [rng.uniform(-1.0, 1.0) for _ in range(n - 1)]
            last = -sum(biases)
            if not -1.0 <= last <= n - 1.0:
                continue
            probs = [rng.uniform(0.0, 0.05) for _ in range(n)]
            r = ReceiverModel(
                detectors=tuple(
                    DetectorUnit(p, b) for p, b in zip(probs, biases + [last])
                ),
                dark_count_prob_total=1e-6,
                intrinsic_error=0.01,
            )
            agg = aggregate_afterpulse(r)
            assert min(probs) * (1 - 1e-12) <= agg <= max(probs) * (1 + 1e-12)


class TestReceiverValidation:
    def test_bias_out_of_range_names_index(self):
        with pytest.raises(ValidationError, match=r"detectors\[1\]"):
            ReceiverModel(
                detectors=(DetectorUnit(0.01, 0.0), DetectorUnit(0.01, 1.5)),
                dark_count_prob_total=1e-6,
                intrinsic_error=0.01,
            )

    def test_bias_sum_violation(self):
        with pytest.raises(ValidationError, match="sum to 0"):
            ReceiverModel(
                detectors=(DetectorUnit(0.01, 0.3), DetectorUnit(0.01, 0.0)),
                dark_count_prob_total=1e-6,
                intrinsic_error=0.01,
            )

    def test_degenerate_bias_configuration_accepted(self):
        # one detector taking every photon forces all others to bias -1
        units = (DetectorUnit(0.01, 2.0), DetectorUnit(0.01, -1.0), DetectorUnit(0.01, -1.0))
        r = ReceiverModel(detectors=units, dark_count_prob_total=1e-6, intrinsic_error=0.01)
        assert aggregate_afterpulse(r) == pytest.approx(0.01)

    def test_degenerate_bias_with_other_partner_rejected(self):
        units = (DetectorUnit(0.01, 2.0), DetectorUnit(0.01, -0.5), DetectorUnit(0.01, -1.5))
        with pytest.raises(ValidationError):
            ReceiverModel(detectors=units, dark_count_prob_total=1e-6, intrinsic_error=0.01)

    def test_afterpulse_prob_out_of_range(self):
        with pytest.raises(ValidationError):
            DetectorUnit(1.2)
        with pytest.raises(ValidationError):
            DetectorUnit(-0.1)

    def test_parameter_ranges(self):
        with pytest.raises(ValidationError):
            receiver_two(p_dc=1.0)
        with pytest.raises(ValidationError):
            ReceiverModel.identical(2, dark_count_prob_total=1e-6, intrinsic_error=1.5)
        with pytest.raises(ValidationError):
            ReceiverModel.identical(
                2, dark_count_prob_total=1e-6, intrinsic_error=0.02, detector_efficiency=0.0
            )
        with pytest.raises(ValidationError):
            ReceiverModel(detectors=(), dark_count_prob_total=1e-6, intrinsic_error=0.01)


class TestChannel:
    def test_distance_form(self):
        ch = ChannelModel(attenuation_db_per_km=0.21, distance_km=100.0)
        assert ch.loss_db == pytest.approx(21.0)
        assert ch.channel_transmittance == pytest.approx(10.0 ** -2.1)

    def test_direct_loss_form(self):
        assert channel(10.5).loss_db == 10.5

    def test_transmittance_combines_detector_efficiency(self):
        eta = transmittance(receiver_two(), channel(21.0))
        assert eta == pytest.approx(ETA_21DB, rel=1e-14)

    def test_invalid_combinations(self):
        with pytest.raises(ValidationError):
            ChannelModel()
        with pytest.raises(ValidationError):
            ChannelModel(attenuation_db_per_km=0.21)
        with pytest.raises(ValidationError):
            ChannelModel(distance_km=10.0, transmission_loss_db=2.0, attenuation_db_per_km=0.2)
        with pytest.raises(ValidationError):
            ChannelModel(transmission_loss_db=-1.0)
        with pytest.raises(ValidationError):
            ChannelModel(attenuation_db_per_km=-0.1, distance_km=1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"transmission_loss_db": math.nan}, "transmission_loss_db must be >= 0, got nan"),
            ({"attenuation_db_per_km": 0.21, "distance_km": math.nan},
             "distance_km must be >= 0, got nan"),
            ({"attenuation_db_per_km": math.nan, "distance_km": 0.0},
             "attenuation_db_per_km must be >= 0, got nan"),
            ({"attenuation_db_per_km": math.inf, "distance_km": 0.0},
             "attenuation_db_per_km must be finite, got inf"),
            ({"attenuation_db_per_km": math.inf, "transmission_loss_db": 3.0},
             "attenuation_db_per_km must be finite, got inf"),
            ({"attenuation_db_per_km": 0.0, "distance_km": math.inf},
             "distance_km must be finite when attenuation_db_per_km is 0, got inf"),
        ],
        ids=["nan_loss", "nan_distance", "nan_attenuation", "inf_attenuation",
             "inf_attenuation_with_loss", "inf_distance_at_zero_attenuation"],
    )
    def test_non_numbers_and_infinite_attenuation_rejected(self, kwargs, message):
        with pytest.raises(ValidationError) as excinfo:
            ChannelModel(**kwargs)
        assert str(excinfo.value) == message

    def test_infinite_loss_or_distance_is_an_opaque_channel(self):
        by_loss = ChannelModel(transmission_loss_db=math.inf)
        by_distance = ChannelModel(attenuation_db_per_km=0.21, distance_km=math.inf)
        assert by_loss.channel_transmittance == by_distance.channel_transmittance == 0.0


class TestIntensityAndProtocol:
    def test_weak_decoy_below_signal(self):
        with pytest.raises(ValidationError):
            IntensitySet(signal_mu=0.05, weak_decoy_nu1=0.05)
        with pytest.raises(ValidationError):
            IntensitySet(signal_mu=0.5, weak_decoy_nu1=-0.01)

    def test_only_ideal_vacuum_decoy(self):
        with pytest.raises(ValidationError):
            IntensitySet(signal_mu=0.5, weak_decoy_nu1=0.05, vacuum_decoy=0.01)

    def test_protocol_ranges(self):
        with pytest.raises(ValidationError):
            ProtocolParams(sifting_factor=0.0)
        with pytest.raises(ValidationError):
            ProtocolParams(ec_efficiency=0.9)
        with pytest.raises(ValidationError) as excinfo:
            ProtocolParams(ec_efficiency=math.nan)
        assert str(excinfo.value) == "ec_efficiency must be >= 1, got nan"


class TestYields:
    def test_background_without_afterpulsing(self):
        assert yield_background(receiver_two(0.0, p_dc=6e-7)) == 6e-7

    def test_background_no_dark_counts(self):
        assert yield_background(receiver_two(0.5, p_dc=0.0)) == 0.0

    def test_background_afterpulse_inflation(self):
        # direct evaluation: (1 + 0.008) * 6e-7
        assert yield_background(receiver_two(0.008)) == pytest.approx(6.048e-7, rel=1e-15)

    def test_yield_zero_photons_is_background(self):
        r = receiver_two(0.008)
        assert yield_i(r, channel(21.0), 0) == yield_background(r)

    def test_single_photon_perfect_transmittance(self):
        r = ReceiverModel.identical(
            2, dark_count_prob_total=0.0, intrinsic_error=0.02, detector_efficiency=1.0
        )
        assert yield_i(r, channel(0.0), 1) == 1.0

    def test_two_photon_yield_oracle(self):
        # oracle: 6e-7 + 1 - (1 - eta)^2 with eta = 0.1 * 10^-2.1
        expected = 0.0015886255121040187
        got = yield_i(receiver_two(0.0), channel(21.0), 2)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_negative_photon_number_rejected(self):
        with pytest.raises(ValidationError):
            yield_i(receiver_two(), channel(21.0), -1)

    def test_nondecreasing_and_bounded(self):
        r = receiver_two(0.03)
        ch = channel(8.0)
        p_ap = aggregate_afterpulse(r)
        ys = [yield_i(r, ch, i) for i in range(12)]
        for lo, hi in zip(ys, ys[1:]):
            assert hi >= lo
        assert all(y <= yield_background(r) + (1.0 + p_ap) for y in ys)

    def test_eta_i_edge_cases(self):
        assert multi_photon_transmittance(1.0, 3) == 1.0
        assert multi_photon_transmittance(0.5, 0) == 0.0
        assert multi_photon_transmittance(0.0, 4) == 0.0


class TestQberI:
    def test_zero_photon_error_is_background_error(self):
        r = receiver_two(0.008)
        assert qber_i(r, channel(21.0), 0) == r.background_error

    def test_noiseless_limit_is_intrinsic_error(self):
        r = receiver_two(0.0, p_dc=0.0)
        assert qber_i(r, channel(21.0), 1) == 0.02

    def test_direct_evaluation_oracle(self):
        # oracle: [e0 Y0 + (e' + e0 p_ap) eta] / (Y0 + eta (1 + p_ap))
        expected = 0.02416894529341837
        got = qber_i(receiver_two(0.008), channel(21.0), 1)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_zero_yield_degenerate(self):
        r = receiver_two(0.0, p_dc=0.0)
        with pytest.raises(DegenerateInputError):
            qber_i(r, channel(21.0), 0)

    def test_bounded_by_participating_error_rates(self):
        rng = random.Random(11)
        for _ in range(50):
            r = receiver_two(
                rng.uniform(0.0, 0.05), p_dc=rng.uniform(1e-8, 1e-5),
                e_prime=rng.uniform(0.0, 0.05),
            )
            e = qber_i(r, channel(rng.uniform(0.0, 25.0)), rng.randint(1, 4))
            assert 0.0 < e <= max(r.background_error, r.intrinsic_error)


class TestGainAndQber:
    def test_vacuum_gain_is_background(self):
        r = receiver_two(0.008)
        assert gain_total(r, channel(21.0), 0.0) == yield_background(r)

    def test_gain_direct_oracle(self):
        # oracle: 6e-7 + 1 - exp(-eta * 0.48) at 21 dB
        expected = 0.000381804875618546
        got = gain_total(receiver_two(0.0), channel(21.0), 0.48)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_opaque_channel_gain_is_background(self):
        r = receiver_two(0.01)
        assert gain_total(r, channel(4000.0), 0.48) == pytest.approx(
            yield_background(r), rel=1e-12
        )

    def test_gain_resolves_tiny_detection_terms(self):
        # at 150 dB loss eta*mu ~ 5e-17 underflows a naive 1 - exp(-x); the
        # detection term must still separate the gain from the background
        r = receiver_two(0.0)
        gain = gain_total(r, channel(150.0), 0.48)
        eta = transmittance(r, channel(150.0))
        assert gain - yield_background(r) == pytest.approx(eta * 0.48, rel=1e-9)

    def test_gain_above_one_is_model_domain_error(self):
        r = ReceiverModel.identical(
            2, 1.0, dark_count_prob_total=0.0, intrinsic_error=0.02,
            detector_efficiency=1.0,
        )
        with pytest.raises(ModelDomainError):
            gain_total(r, channel(0.0), 1.5)

    def test_negative_mean_photon_rejected(self):
        with pytest.raises(ValidationError) as excinfo:
            gain_total(receiver_two(0.0), channel(21.0), -0.1)
        assert str(excinfo.value) == "mean_photon must be >= 0, got -0.1"

    def test_qber_background_dominated_limit(self):
        r = receiver_two(0.008)
        assert qber_total(r, channel(21.0), 0.0) == r.background_error

    def test_qber_direct_oracle(self):
        # oracle: [0.5*6e-7 + 0.02*(1 - exp(-eta*0.48))] / Q at 21 dB
        expected = 0.02075431200173498
        got = qber_total(receiver_two(0.0), channel(21.0), 0.48)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_qber_collapses_to_intrinsic_without_noise(self):
        r = receiver_two(0.0, p_dc=0.0)
        assert qber_total(r, channel(21.0), 0.48) == 0.02

    def test_qber_zero_gain_degenerate(self):
        r = receiver_two(0.0, p_dc=0.0)
        with pytest.raises(DegenerateInputError):
            qber_total(r, channel(21.0), 0.0)

    def test_afterpulse_free_reduction_is_exact(self):
        # with p_ap = 0 the gain and QBER match the unmodified model bitwise
        r = receiver_two(0.0)
        ch = channel(13.0)
        eta = transmittance(r, ch)
        for mu in (0.05, 0.48, 1.0):
            detected = -math.expm1(-eta * mu)
            q_ref = 6e-7 + detected
            e_ref = (0.5 * 6e-7 + 0.02 * detected) / q_ref
            assert gain_total(r, ch, mu) == q_ref
            assert qber_total(r, ch, mu) == e_ref
        assert yield_i(r, ch, 3) == 6e-7 + multi_photon_transmittance(eta, 3)


class TestBaselineError:
    def test_no_afterpulsing_returns_intrinsic(self):
        assert effective_baseline_error(0.02, 0.5, 0.0) == 0.02

    def test_worked_example(self):
        # (0.02 + 0.5*0.008)/1.008, a +19.05% relative change
        assert effective_baseline_error(0.02, 0.5, 0.008) == pytest.approx(
            0.023809523809523808, rel=1e-15
        )
        assert baseline_error_change(0.02, 0.5, 0.008) == pytest.approx(
            0.19047619047619047, rel=1e-15
        )

    def test_fixed_point_at_equal_rates(self):
        for p_ap in (0.0, 0.01, 0.5, 3.0):
            assert effective_baseline_error(0.5, 0.5, p_ap) == 0.5

    def test_change_vanishes_without_afterpulsing(self):
        assert baseline_error_change(0.02, 0.5, 0.0) == 0.0

    def test_change_vanishes_at_equal_rates(self):
        for p_ap in (0.001, 0.1, 2.0):
            assert baseline_error_change(0.5, 0.5, p_ap) == 0.0

    def test_change_undefined_for_zero_intrinsic(self):
        # and for a subnormal e', where e0/e' overflows (inf, or nan at p_ap = 0)
        for e_prime, p_ap in ((0.0, 0.01), (5e-324, 0.01), (2e-309, 0.0)):
            with pytest.raises(DegenerateInputError):
                baseline_error_change(e_prime, 0.5, p_ap)

    @pytest.mark.parametrize("function", [effective_baseline_error, baseline_error_change])
    def test_negative_afterpulsing_rejected(self, function):
        with pytest.raises(ValidationError) as excinfo:
            function(0.02, 0.5, -0.01)
        assert str(excinfo.value) == "afterpulse_prob must be >= 0, got -0.01"

    def test_monotone_in_afterpulsing(self):
        grid = [k / 100.0 for k in range(101)]
        increasing = [effective_baseline_error(0.02, 0.5, p) for p in grid]
        decreasing = [effective_baseline_error(0.75, 0.5, p) for p in grid]
        for lo, hi in zip(increasing, increasing[1:]):
            assert hi > lo
        for lo, hi in zip(decreasing, decreasing[1:]):
            assert hi < lo

    def test_saturates_toward_background_error(self):
        assert effective_baseline_error(0.02, 0.5, 1e6) == pytest.approx(0.5, abs=1e-5)

    def test_near_linearity_for_small_afterpulsing(self):
        # relative deviation from the first-order expansion is below p_ap
        # itself, hence below 10% over p_ap <= 0.1 and below 1% over <= 0.01
        for e_prime in (0.005, 0.02, 0.05, 0.25):
            for p_ap in (1e-4, 1e-3, 0.01, 0.05, 0.1):
                exact = effective_baseline_error(e_prime, 0.5, p_ap)
                linear = e_prime + (0.5 - e_prime) * p_ap
                deviation = abs(exact - linear) / exact
                assert deviation < p_ap
                if p_ap <= 0.01:
                    assert deviation < 0.01

    def test_bounds_between_rates(self):
        rng = random.Random(3)
        for _ in range(100):
            e_prime = rng.uniform(0.0, 1.0)
            e0 = rng.uniform(0.0, 1.0)
            p_ap = rng.uniform(0.0, 10.0)
            e_det = effective_baseline_error(e_prime, e0, p_ap)
            assert min(e_prime, e0) - 1e-15 <= e_det <= max(e_prime, e0) + 1e-15


class TestVisibility:
    def test_perfect_interferometer(self):
        assert visibility(0.0, 0.5, 0.0) == 1.0

    def test_worked_example(self):
        assert visibility(0.02, 0.5, 0.008) == pytest.approx(0.9523809523809523, rel=1e-15)

    def test_zero_visibility_at_half_error(self):
        for p_ap in (0.0, 0.01, 1.0):
            assert visibility(0.5, 0.5, p_ap) == 0.0

    def test_round_trip_identity(self):
        rng = random.Random(5)
        for _ in range(200):
            e_prime = rng.uniform(0.0, 1.0)
            p_ap = rng.uniform(0.0, 5.0)
            v = visibility(e_prime, 0.5, p_ap)
            e_det = effective_baseline_error(e_prime, 0.5, p_ap)
            assert abs((1.0 - v) / 2.0 - e_det) <= 2.0 ** -52


class TestDecoyConsistency:
    """Signal and decoys share one set of photon-number yields and error rates.

    Any intensity x measures the Poisson mixture of the same Y_i and e_i:
    Q_x = sum_i Y_i e^-x x^i/i! and E_x Q_x = sum_i e_i Y_i e^-x x^i/i!.
    """

    ULPS = 4

    def assert_mixture(self, poisson_mixture, r, ch, x):
        gain, errors = poisson_mixture(r, ch, x)
        q = gain_total(r, ch, x)
        assert abs(gain - q) <= self.ULPS * math.ulp(q)
        eq = qber_total(r, ch, x) * q
        assert abs(errors - eq) <= self.ULPS * math.ulp(eq)

    def test_structural_identity(self, poisson_mixture):
        for x in (0.05, 0.48, 1.0):
            self.assert_mixture(poisson_mixture, receiver_two(0.008), channel(5.0), x)

    def test_zero_photon_case(self, poisson_mixture):
        # the vacuum decoy measures Y0 and e0 Y0 alone
        r = receiver_two(0.008)
        assert poisson_mixture(r, channel(5.0), 0.0) == (
            yield_background(r),
            qber_i(r, channel(5.0), 0) * yield_background(r),
        )
        self.assert_mixture(poisson_mixture, r, channel(5.0), 0.0)

    def test_random_receivers_match_poisson_mixture(self, poisson_mixture, random_receiver):
        rng = random.Random(13)
        for _ in range(100):
            r = random_receiver(rng)
            ch = channel(rng.uniform(0.0, 50.0))
            x = rng.choice((rng.uniform(0.0, 1.5), rng.uniform(0.0, 0.01)))
            self.assert_mixture(poisson_mixture, r, ch, x)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda r, c: gain_total(r, c, math.nan), "mean_photon must be >= 0, got nan"),
        (lambda r, c: qber_total(r, c, math.nan), "mean_photon must be >= 0, got nan"),
        (lambda r, c: effective_baseline_error(0.02, 0.5, math.nan),
         "afterpulse_prob must be >= 0, got nan"),
        (lambda r, c: baseline_error_change(0.02, 0.5, math.nan),
         "afterpulse_prob must be >= 0, got nan"),
        (lambda r, c: visibility(0.02, 0.5, math.nan), "afterpulse_prob must be >= 0, got nan"),
        (lambda r, c: skr_approx(r, c, -1.0, ProtocolParams(), warn=False),
         "mu must be >= 0, got -1.0"),
        (lambda r, c: skr_approx(r, c, math.nan, ProtocolParams(), warn=False),
         "mu must be >= 0, got nan"),
        (lambda r, c: trace_iso_qber_surface((0.01,), (0.02,), 21.0, 0.09, r, math.nan),
         "mean_photon must be > 0, got nan"),
        (lambda r, c: dark_count_threshold(0.01, 0.02, 21.0, 0.09, r, math.nan),
         "mean_photon must be > 0, got nan"),
    ],
    ids=["gain_total", "qber_total", "effective_baseline_error", "baseline_error_change",
         "visibility", "skr_approx_negative", "skr_approx_nan", "trace_iso_qber_surface",
         "dark_count_threshold"],
)
def test_nan_and_negative_scalar_inputs_rejected(call, message):
    """A NaN, or a negative intensity, is a validation error, never a nan or a wrong answer."""
    with pytest.raises(ValidationError) as excinfo:
        call(receiver_two(0.008), channel(21.0))
    assert str(excinfo.value) == message
