"""Weak+vacuum single-photon estimation and secure-key-rate bounds."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from . import model
from .errors import EstimationInfeasibleError, ValidationError

_LN2 = math.log(2.0)

# Validity guards for the low-noise, high-loss key-rate approximation.
_APPROX_ETA_MAX = 0.1
_APPROX_BACKGROUND_FRACTION = 0.1


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy with the continuous extension H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"binary_entropy argument must be in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    # log1p keeps the (1 - x) term accurate for x near 0
    return -(x * math.log2(x) + (1.0 - x) * math.log1p(-x) / _LN2)


@dataclass(frozen=True)
class SinglePhotonEstimate:
    """Weak+vacuum bounds on the single-photon contribution.

    ``clamped`` records whether any bound had to be clipped into [0, 1], so
    downstream sweeps can distinguish physical from clamped points.
    """

    y1_lower: float
    e1_upper: float
    q1_lower: float
    clamped: bool = False


def estimate_single_photon(
    q_mu: float,
    e_mu: float,
    q_nu1: float,
    e_nu1: float,
    y0: float,
    mu: float,
    nu1: float,
    e0: float = 0.5,
) -> SinglePhotonEstimate:
    """Bound the single-photon yield and error rate from the two decoy gains.

    Standard weak+vacuum estimation: the vacuum decoy measures the background
    yield y0, and the weak decoy pins the linear photon-number term, giving

        Y1 >= mu/(mu nu1 - nu1^2) [Q_nu1 e^nu1 - Q_mu e^mu nu1^2/mu^2
                                   - (mu^2 - nu1^2)/mu^2 y0]
        e1 <= [E_nu1 Q_nu1 e^nu1 - e0 y0] / (Y1_lower nu1)

    and Q1_lower = Y1_lower mu e^-mu. Bounds outside [0, 1] are clamped and
    flagged; a nonpositive yield bound raises EstimationInfeasibleError.
    """
    if not 0.0 < nu1 < mu:
        raise ValidationError(
            f"weak+vacuum estimation needs 0 < nu1 < mu, got nu1={nu1!r} mu={mu!r}"
        )
    y1 = (mu / (mu * nu1 - nu1 * nu1)) * (
        q_nu1 * math.exp(nu1)
        - q_mu * math.exp(mu) * (nu1 * nu1) / (mu * mu)
        - (mu * mu - nu1 * nu1) / (mu * mu) * y0
    )
    if y1 <= 0.0:
        raise EstimationInfeasibleError(
            f"single-photon yield bound is nonpositive ({y1!r}); "
            "link too noisy for a positive key"
        )
    clamped = False
    if y1 > 1.0:
        y1 = 1.0
        clamped = True
    e1 = (e_nu1 * q_nu1 * math.exp(nu1) - e0 * y0) / (y1 * nu1)
    if e1 < 0.0:
        e1 = 0.0
        clamped = True
    elif e1 > 1.0:
        e1 = 1.0
        clamped = True
    return SinglePhotonEstimate(
        y1_lower=y1,
        e1_upper=e1,
        q1_lower=y1 * mu * math.exp(-mu),
        clamped=clamped,
    )


def skr_lower_bound(
    q_mu: float,
    e_mu: float,
    q1_lower: float,
    e1_upper: float,
    protocol: model.ProtocolParams,
    *,
    ec_efficiency_fn: Callable[[float], float] | None = None,
) -> tuple[float, float]:
    """Secure-key-rate lower bound in bits per pulse.

    raw = q { -f(E_mu) Q_mu H2(E_mu) + Q1 [1 - H2(e1)] }, floored at zero.
    The single-photon term is dropped when e1 >= 1/2, where the entropy
    saturates and single photons carry no key. ``ec_efficiency_fn`` may map
    the observed error rate to an error-correction efficiency; by default the
    protocol's constant is used. Returns (floored, raw).
    """
    f = protocol.ec_efficiency if ec_efficiency_fn is None else ec_efficiency_fn(e_mu)
    if e1_upper < 0.5:
        single = q1_lower * (1.0 - binary_entropy(e1_upper))
    else:
        single = 0.0
    raw = protocol.sifting_factor * (-f * q_mu * binary_entropy(e_mu) + single)
    return max(0.0, raw), raw


def skr_approx(
    receiver: model.ReceiverModel,
    channel: model.ChannelModel,
    mu: float,
    protocol: model.ProtocolParams,
    *,
    ec_efficiency_fn: Callable[[float], float] | None = None,
    warn: bool = True,
) -> float:
    """Closed-form key-rate approximation for low background and small transmittance.

    -eta mu (1 + p_ap) f(e_det) H2(e_det) + eta mu e^-mu (1 + p_ap) [1 - H2(e_det)]
    with e_det the afterpulse-corrected baseline error rate. No sifting factor
    is applied. Outside the validity region (background yield comparable to
    the transmittance, or transmittance not small) a RuntimeWarning is issued.
    """
    eta = model.transmittance(receiver, channel)
    y0 = model.yield_background(receiver)
    if warn and (eta > _APPROX_ETA_MAX or y0 > _APPROX_BACKGROUND_FRACTION * eta):
        warnings.warn(
            "key-rate approximation used outside its validity region "
            f"(eta={eta:g}, y0={y0:g})",
            RuntimeWarning,
            stacklevel=2,
        )
    p_ap = model.aggregate_afterpulse(receiver)
    e_det = model.effective_baseline_error(
        receiver.intrinsic_error, receiver.background_error, p_ap
    )
    f = protocol.ec_efficiency if ec_efficiency_fn is None else ec_efficiency_fn(e_det)
    h = binary_entropy(e_det)
    scale = eta * mu * (1.0 + p_ap)
    return -scale * f * h + scale * math.exp(-mu) * (1.0 - h)


@dataclass(frozen=True)
class LinkMetrics:
    """Every protocol-level quantity for one operating point.

    ``estimate`` is None and ``reason`` is set when decoy estimation was
    infeasible; ``skr_lower`` is then zero and ``skr_raw`` is None.
    """

    q_mu: float
    e_mu: float
    q_nu1: float
    e_nu1: float
    y0_measured: float
    estimate: SinglePhotonEstimate | None
    skr_lower: float
    skr_raw: float | None
    skr_approx: float
    reason: str | None = None


def evaluate_link(
    receiver: model.ReceiverModel,
    channel: model.ChannelModel,
    intensities: model.IntensitySet,
    protocol: model.ProtocolParams,
) -> LinkMetrics:
    """Run the full forward model plus decoy estimation for one operating point."""
    mu = intensities.signal_mu
    nu1 = intensities.weak_decoy_nu1
    y0 = model.yield_background(receiver)
    q_mu = model.gain_total(receiver, channel, mu)
    e_mu = model.qber_total(receiver, channel, mu)
    q_nu1 = model.gain_total(receiver, channel, nu1)
    e_nu1 = model.qber_total(receiver, channel, nu1)
    approx = skr_approx(receiver, channel, mu, protocol, warn=False)
    try:
        estimate = estimate_single_photon(
            q_mu, e_mu, q_nu1, e_nu1, y0, mu, nu1, receiver.background_error
        )
    except EstimationInfeasibleError:
        return LinkMetrics(
            q_mu=q_mu,
            e_mu=e_mu,
            q_nu1=q_nu1,
            e_nu1=e_nu1,
            y0_measured=y0,
            estimate=None,
            skr_lower=0.0,
            skr_raw=None,
            skr_approx=approx,
            reason="estimation_infeasible",
        )
    skr_low, skr_raw = skr_lower_bound(
        q_mu, e_mu, estimate.q1_lower, estimate.e1_upper, protocol
    )
    return LinkMetrics(
        q_mu=q_mu,
        e_mu=e_mu,
        q_nu1=q_nu1,
        e_nu1=e_nu1,
        y0_measured=y0,
        estimate=estimate,
        skr_lower=skr_low,
        skr_raw=skr_raw,
        skr_approx=approx,
    )
