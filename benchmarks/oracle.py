"""Independent oracle: the closed forms of PAPER.md, evaluated from scratch.

``link`` takes a numeric backend: ``mpmath.mp`` at 50 digits for the
precision check, or ``math`` for the dense mu grid of the optimizer check.
It shares no code with the package under test.

Errors are condition-scaled: the difference is divided by the sum of the
magnitudes of the terms the quantity is computed from, not by the quantity
itself, because quantities such as ``skr_raw`` cancel to nearly zero at the
edge of a positive key, where a relative error means nothing.
"""
from __future__ import annotations

import math

import mpmath

DIGITS = 50


def _h2(M, x):
    if x == 0 or x == 1:
        return 0
    return -(x * M.log(x) + (1 - x) * M.log(1 - x)) / M.log(2)


def _abs_sum(terms):
    return sum(abs(t) for t in terms)


def link(M, *, p_ap, p_dc, e_prime, e0, efficiency, loss_db, mu, nu1, q, f):
    """Every metric at one node, the scale each is compared at, and the status.

    The status is ``"model-domain-error"`` when the afterpulse probability or
    a gain exceeds 1 (only the gains and error rates are then returned),
    ``"infeasible"`` when the single-photon yield bound is not positive (the
    bound quantities are then None), else ``"ok"``.
    """
    num = M.mpf if M is mpmath.mp else float
    p_ap, p_dc, e_prime, e0, efficiency, loss_db, mu, nu1, q, f = map(
        num, (p_ap, p_dc, e_prime, e0, efficiency, loss_db, mu, nu1, q, f)
    )
    e_det = (e_prime + e0 * p_ap) / (1 + p_ap)
    values = {"p_ap": p_ap, "e_detector": e_det, "visibility": 1 - 2 * e_det}
    if e_prime:
        values["baseline_error_change"] = (e0 / e_prime - 1) * p_ap / (1 + p_ap)
    eta = efficiency * 10 ** (-loss_db / 10)
    y0 = (1 + p_ap) * p_dc
    values["y0"] = y0
    for name, x in (("mu", mu), ("nu1", nu1)):
        detected = -M.expm1(-eta * x)
        gain = y0 + detected * (1 + p_ap)
        values[f"q_{name}"] = gain
        values[f"e_{name}"] = (e0 * y0 + (e_prime + e0 * p_ap) * detected) / gain
    scales = {name: abs(value) for name, value in values.items()}
    if p_ap > 1 or values["q_mu"] > 1 or values["q_nu1"] > 1:
        return values, scales, "model-domain-error"
    q_mu, q_nu1 = values["q_mu"], values["q_nu1"]

    h_det = _h2(M, e_det)
    approx_terms = (eta * mu * (1 + p_ap) * f * h_det,
                    eta * mu * (1 + p_ap) * M.exp(-mu) * (1 - h_det))
    values["skr_approx"] = approx_terms[1] - approx_terms[0]
    scales["skr_approx"] = _abs_sum(approx_terms)

    y1_factor = mu / (mu * nu1 - nu1 * nu1)
    y1_terms = (q_nu1 * M.exp(nu1), q_mu * M.exp(mu) * nu1 * nu1 / (mu * mu),
                (mu * mu - nu1 * nu1) / (mu * mu) * y0)
    y1 = y1_factor * (y1_terms[0] - y1_terms[1] - y1_terms[2])
    if y1 <= 0:
        values.update(y1_lower=None, e1_upper=None, q1_lower=None, skr_raw=None, skr_lower=0)
        scales["skr_lower"] = 1
        return values, scales, "infeasible"
    y1_scale = y1_factor * _abs_sum(y1_terms)
    y1 = min(y1, 1)
    e1_terms = (values["e_nu1"] * q_nu1 * M.exp(nu1), e0 * y0)
    e1 = min(max((e1_terms[0] - e1_terms[1]) / (y1 * nu1), 0), 1)
    q1 = y1 * mu * M.exp(-mu)
    key_terms = (f * q_mu * _h2(M, values["e_mu"]), q1 * (1 - _h2(M, e1)) if e1 < 0.5 else 0)
    raw = q * (key_terms[1] - key_terms[0])
    values.update(y1_lower=y1, e1_upper=e1, q1_lower=q1, skr_raw=raw, skr_lower=max(raw, 0))
    scales.update(
        y1_lower=y1_scale,
        e1_upper=_abs_sum(e1_terms) / (y1 * nu1),
        q1_lower=y1_scale * mu * M.exp(-mu),
        skr_raw=q * _abs_sum(key_terms),
        skr_lower=q * _abs_sum(key_terms),
    )
    return values, scales, "ok"


def precise(**node):
    """``link`` at ``DIGITS`` significant digits."""
    with mpmath.workdps(DIGITS):
        return link(mpmath.mp, **node)


def fast(**node):
    """``link`` in double precision."""
    return link(math, **node)


def scaled_error(value: float, exact, scale) -> float:
    """|value - exact| / scale; a zero scale requires an exact match."""
    diff = abs(mpmath.mpf(value) - exact)
    if not scale:
        return 0.0 if diff == 0 else math.inf
    return float(diff / scale)
