"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either frozen from an independent oracle or
recomputed here from scratch (plain closed-form expressions, never the
library's own code path). Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""
import csv
import math
import random
import time
from contextlib import contextmanager

from decoylink import (
    Axis,
    ChannelModel,
    IntensitySet,
    ProtocolParams,
    ReceiverModel,
    SweepSpec,
    baseline_error_change,
    binary_entropy,
    effective_baseline_error,
    estimate_single_photon,
    gain_total,
    maximize_skr_over_mu,
    qber_total,
    run_sweep,
    skr_approx,
    solve_optimal_mu,
    trace_iso_qber_surface,
    transmittance,
    visibility,
    yield_background,
    yield_i,
)
from decoylink.cli import main

PROTOCOL = ProtocolParams()  # q = 1/2, f = 1.16


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_seconds is not None and elapsed >= budget_seconds:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(
            f"{'PASS' if ok else 'FAIL'} criterion {number} ({elapsed:.2f}s): {description}"
        )


def receiver(p_ap=0.0, p_dc=6e-7, e_prime=0.02):
    return ReceiverModel.identical(
        2, p_ap, dark_count_prob_total=p_dc, intrinsic_error=e_prime
    )


# ---------------------------------------------------------------- oracles --

def oracle_h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def oracle_eta(loss_db, eta_bob=0.1):
    return eta_bob * 10.0 ** (-loss_db / 10.0)


def oracle_gain_qber(eta, p_ap, e_prime, p_dc, mean_photon, e0=0.5):
    y0 = (1.0 + p_ap) * p_dc
    detected = -math.expm1(-eta * mean_photon)
    q = y0 + detected * (1.0 + p_ap)
    e = (e0 * y0 + (e_prime + e0 * p_ap) * detected) / q
    return q, e


def oracle_skr(loss_db, p_ap, e_prime, mu, nu1, p_dc=6e-7, f=1.16, q=0.5, e0=0.5):
    """Full key-rate lower bound rebuilt from the closed-form equations."""
    eta = oracle_eta(loss_db)
    y0 = (1.0 + p_ap) * p_dc
    q_mu, e_mu = oracle_gain_qber(eta, p_ap, e_prime, p_dc, mu)
    q_nu, e_nu = oracle_gain_qber(eta, p_ap, e_prime, p_dc, nu1)
    y1 = (mu / (mu * nu1 - nu1**2)) * (
        q_nu * math.exp(nu1)
        - q_mu * math.exp(mu) * nu1**2 / mu**2
        - (mu**2 - nu1**2) / mu**2 * y0
    )
    e1 = (e_nu * q_nu * math.exp(nu1) - e0 * y0) / (y1 * nu1)
    rate = q * (
        -f * q_mu * oracle_h2(e_mu)
        + y1 * mu * math.exp(-mu) * (1.0 - oracle_h2(e1))
    )
    return max(0.0, rate)


# -------------------------------------------------------------- criteria --

def test_criterion_1_worked_baseline_change():
    with criterion(1, "afterpulse of 0.8% raises a 2% baseline error by 19.05%"):
        change = baseline_error_change(0.02, 0.5, 0.008)
        assert abs(change - 0.19) <= 0.002  # within 0.2 percentage points
        assert change == 24.0 * 0.008 / 1.008


def test_criterion_2_change_specialization():
    with criterion(2, "relative change equals 24 p/(1+p) at e' = 2%, machine precision"):
        for p_ap in (0.001, 0.01, 0.1):
            assert baseline_error_change(0.02, 0.5, p_ap) == 24.0 * (p_ap / (1.0 + p_ap))


def test_criterion_3_baseline_error_curve_shapes():
    with criterion(
        3, "baseline-error curves: monotone per intrinsic error, saturate at 1/2",
        budget_seconds=1.0,
    ):
        axis = Axis("p_ap", 1e-4, 10.0, 60, "log")
        for e_prime in (0.005, 0.02, 0.05, 0.25, 0.75):
            spec = SweepSpec(
                receiver=receiver(e_prime=e_prime),
                channel=ChannelModel(transmission_loss_db=0.0),
                intensities=IntensitySet(0.48, 0.038),
                protocol=PROTOCOL,
                axes=(axis,),
                outputs=("e_detector",),
            )
            values = [record.values[0] for record in run_sweep(spec)]
            deltas = [hi - lo for lo, hi in zip(values, values[1:])]
            if e_prime < 0.5:
                assert all(d > 0.0 for d in deltas)
            else:
                assert all(d < 0.0 for d in deltas)
            assert abs(effective_baseline_error(e_prime, 0.5, 1e3) - 0.5) < 1e-3


def test_criterion_4_dark_count_threshold_surface():
    with criterion(
        4, "9%-QBER dark-count thresholds: lower at 21 dB, re-evaluate to target",
        budget_seconds=10.0,
    ):
        p_values = [0.1 * k / 49.0 for k in range(50)]
        e_values = [0.05 * k / 49.0 for k in range(50)]
        template = receiver()
        near = trace_iso_qber_surface(p_values, e_values, 10.5, 0.09, template, 0.48)
        far = trace_iso_qber_surface(p_values, e_values, 21.0, 0.09, template, 0.48)
        assert any(p.feasible for p in near)
        assert any(not p.feasible for p in near)
        checked = 0
        for a, b in zip(near, far):
            assert a.feasible == b.feasible  # the p_dc = 0 floor is loss-free
            if not a.feasible:
                continue
            assert b.dark_count_prob < a.dark_count_prob
            for point, loss_db in ((a, 10.5), (b, 21.0)):
                eta = oracle_eta(loss_db)
                y0 = (1.0 + point.p_ap) * point.dark_count_prob
                detected = -math.expm1(-eta * 0.48)
                qber = (
                    0.5 * y0
                    + (point.intrinsic_error + 0.5 * point.p_ap) * detected
                ) / (y0 + detected * (1.0 + point.p_ap))
                assert abs(qber - 0.09) <= 1e-6
            checked += 1
        assert checked > 1000


def test_criterion_5_decoy_bound_sandwich():
    with criterion(
        5, "decoy bounds sandwich the exact single-photon quantities, 200 draws",
        budget_seconds=1.0,
    ):
        rng = random.Random(20260811)
        for _ in range(200):
            loss = rng.uniform(0.0, 25.0)
            p_ap = rng.uniform(0.0, 0.05)
            e_prime = rng.uniform(0.0, 0.05)
            nu1 = rng.uniform(1e-12, 0.2)
            mu = rng.uniform(nu1 * (1.0 + 1e-12), 1.0)
            r = receiver(p_ap, e_prime=e_prime)
            ch = ChannelModel(transmission_loss_db=loss)
            est = estimate_single_photon(
                gain_total(r, ch, mu),
                qber_total(r, ch, mu),
                gain_total(r, ch, nu1),
                qber_total(r, ch, nu1),
                yield_background(r),
                mu,
                nu1,
            )
            eta = oracle_eta(loss)
            y1_exact = (1.0 + p_ap) * 6e-7 + eta * (1.0 + p_ap)
            e1_exact = (
                0.5 * (1.0 + p_ap) * 6e-7 + (e_prime + 0.5 * p_ap) * eta
            ) / y1_exact
            assert est.y1_lower <= y1_exact
            assert est.e1_upper >= e1_exact


def test_criterion_6_key_rate_vs_afterpulse_curves():
    with criterion(
        6, "key-rate curves: positive, nonincreasing, ordered by error and loss",
        budget_seconds=10.0,
    ):
        axis = Axis("p_ap", 1e-4, 0.05, 12, "log")
        curves = {}
        for loss_db, nu1 in ((0.0, 0.038), (5.0, 0.05), (21.0, 0.12)):
            for e_prime in (0.005, 0.02):
                spec = SweepSpec(
                    receiver=receiver(e_prime=e_prime),
                    channel=ChannelModel(transmission_loss_db=loss_db),
                    intensities=IntensitySet(1.0, nu1),
                    protocol=PROTOCOL,
                    axes=(axis,),
                    outputs=("skr_lower",),
                    mu_policy="optimize-per-point",
                )
                curves[(loss_db, e_prime)] = run_sweep(spec)
        for (loss_db, e_prime), records in curves.items():
            rates = [r.values[0] for r in records]
            assert rates[0] > 0.0
            for lo, hi in zip(rates[1:], rates):
                assert hi >= lo
        for loss_db in (0.0, 5.0, 21.0):
            low = curves[(loss_db, 0.005)]
            high = curves[(loss_db, 0.02)]
            for a, b in zip(low, high):
                assert b.values[0] < a.values[0]
        for e_prime in (0.005, 0.02):
            for near_db, far_db in ((0.0, 5.0), (5.0, 21.0)):
                for a, b in zip(curves[(near_db, e_prime)], curves[(far_db, e_prime)]):
                    assert b.values[0] < a.values[0]
        # oracle equivalence at 20 sampled points
        nu1_of = {0.0: 0.038, 5.0: 0.05, 21.0: 0.12}
        flat = [
            (loss_db, e_prime, record)
            for (loss_db, e_prime), records in sorted(curves.items())
            for record in records
        ]
        samples = [flat[k * len(flat) // 20] for k in range(20)]
        for loss_db, e_prime, record in samples:
            expected = oracle_skr(
                loss_db, record.axis_values[0], e_prime, record.mu_opt, nu1_of[loss_db]
            )
            assert expected > 0.0
            assert abs(record.values[0] - expected) <= 1e-12 * expected


def test_criterion_7_optimal_intensity_solver():
    with criterion(
        7, "optimal-intensity root: tight residual, matches oracle and direct argmax",
        budget_seconds=5.0,
    ):
        for k in range(50):
            e_det = 1e-4 + (0.09 - 1e-4) * k / 49.0
            result = solve_optimal_mu(e_det, PROTOCOL)
            h = oracle_h2(e_det)
            rhs = 1.16 * h / (1.0 - h)
            assert abs((1.0 - result.mu) * math.exp(-result.mu) - rhs) < 1e-10
        # frozen from an independent 1e-12 bisection at e_det = 0.03
        assert abs(solve_optimal_mu(0.03, PROTOCOL).mu - 0.526242256991736) < 1e-6
        ch = ChannelModel(transmission_loss_db=20.0)
        for e_prime in (0.005, 0.02):
            direct = maximize_skr_over_mu(
                receiver(0.0, p_dc=1e-12, e_prime=e_prime), ch, 0.01, PROTOCOL
            )
            closed = solve_optimal_mu(e_prime, PROTOCOL)
            assert abs(direct.mu - closed.mu) <= 0.02


def test_criterion_8_structural_identities(poisson_mixture, random_receiver):
    with criterion(8, "structural identities hold at machine precision"):
        rng = random.Random(99)
        for _ in range(100):
            e_prime = rng.uniform(0.0, 1.0)
            p_ap = rng.uniform(0.0, 5.0)
            v = visibility(e_prime, 0.5, p_ap)
            e_det = effective_baseline_error(e_prime, 0.5, p_ap)
            assert abs((1.0 - v) / 2.0 - e_det) <= 2.0 ** -52
        # Poisson-mixture identity: every intensity x sees the same photon-number
        # yields, Q_x = sum_i Y_i e^-x x^i/i! and E_x Q_x = sum_i e_i Y_i e^-x x^i/i!
        for _ in range(50):
            r = random_receiver(rng)
            ch = ChannelModel(transmission_loss_db=rng.uniform(0.0, 50.0))
            for x in (0.0, rng.uniform(0.001, 0.12), rng.uniform(0.12, 1.5)):
                gain, errors = poisson_mixture(r, ch, x)
                q = gain_total(r, ch, x)
                assert abs(gain - q) <= 4 * math.ulp(q)
                eq = qber_total(r, ch, x) * q
                assert abs(errors - eq) <= 4 * math.ulp(eq)
        # afterpulse-free reduction: bitwise equal to the unmodified model
        r = receiver(0.0)
        ch = ChannelModel(transmission_loss_db=13.0)
        eta = transmittance(r, ch)
        for i in (0, 1, 3):
            eta_i = 0.0 if i == 0 else -math.expm1(i * math.log1p(-eta))
            assert yield_i(r, ch, i) == 6e-7 + eta_i
        for mu in (0.05, 0.48, 1.0):
            detected = -math.expm1(-eta * mu)
            assert gain_total(r, ch, mu) == 6e-7 + detected
            assert qber_total(r, ch, mu) == (
                (0.5 * 6e-7 + 0.02 * detected) / (6e-7 + detected)
            )
            h = binary_entropy(0.02)
            plain = -(eta * mu) * 1.16 * h + (eta * mu) * math.exp(-mu) * (1.0 - h)
            assert skr_approx(r, ch, mu, PROTOCOL) == plain


def test_criterion_9_sweep_determinism(tmp_path):
    with criterion(9, "repeated sweep runs emit byte-identical output"):
        config = tmp_path / "scenario.yaml"
        config.write_text(
            "receiver:\n"
            "  afterpulse_prob: 0.008\n"
            "  intrinsic_error: 0.02\n"
            "channel:\n"
            "  loss_db: 10.5\n"
            "sweep:\n"
            "  axes:\n"
            "    - {name: p_ap, min: 1.0e-4, max: 0.05, count: 12, spacing: log}\n"
            "  outputs: [e_detector, q_mu, e_mu, skr_lower]\n"
            "  mu_policy: optimize-per-point\n"
        )
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config), "--output", str(first)]) == 0
        assert main(["sweep", "--config", str(config), "--output", str(second)]) == 0
        data = first.read_bytes()
        assert data == second.read_bytes()
        assert len(data) > 0
        with first.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 13
