"""Closed-form link model for decoy-state QKD with afterpulsing SPAD arrays.

All quantities are per-gate probabilities. The receiver aggregates an array
of N avalanche detectors into one effective afterpulse probability; yields,
gains and error rates then follow from the usual weak-coherent-pulse channel
model with every detection term inflated by (1 + p_ap).

Everything in this module is a pure function of frozen value types, so it is
safe to call concurrently from any number of threads. The module also holds
the sweep specs (``Axis``, ``SweepSpec`` and the metric and axis name tables),
and imports no numpy: a scenario parses without loading the array engine.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DegenerateInputError, ModelDomainError, ValidationError

# Absolute tolerance on the zero-sum constraint for detector biases.
BIAS_SUM_TOL = 1e-12


def _check_prob(name: str, value: float, *, upper: float = 1.0) -> None:
    if not 0.0 <= value <= upper:
        raise ValidationError(f"{name} must be in [0, {upper:g}], got {value!r}")


@dataclass(frozen=True)
class DetectorUnit:
    """One SPAD of the receiver array.

    ``afterpulse_prob`` is the probability of a spurious detection conditioned
    on a previous detection event. ``bias`` is the fractional deviation of this
    detector's hit probability from the equal-share ideal; the receiver checks
    that biases sum to zero across the array.
    """

    afterpulse_prob: float
    bias: float = 0.0

    def __post_init__(self) -> None:
        _check_prob("afterpulse_prob", self.afterpulse_prob)


@dataclass(frozen=True)
class ReceiverModel:
    """Bob's detection stage: the detector array plus its noise parameters.

    ``dark_count_prob_total`` is the per-gate dark count probability summed
    over all detectors. ``intrinsic_error`` is the baseline system error rate
    excluding afterpulsing; ``background_error`` is the error rate of
    background counts (1/2 for random noise). ``detector_efficiency`` is the
    receiver-side efficiency folded into the overall transmittance.
    """

    detectors: tuple[DetectorUnit, ...]
    dark_count_prob_total: float
    intrinsic_error: float
    background_error: float = 0.5
    detector_efficiency: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "detectors", tuple(self.detectors))
        n = len(self.detectors)
        if n < 1:
            raise ValidationError("receiver needs at least one detector")
        for m, det in enumerate(self.detectors):
            if not -1.0 <= det.bias <= n - 1.0:
                raise ValidationError(
                    f"detectors[{m}].bias={det.bias!r} outside [-1, {n - 1}]"
                )
        bias_sum = math.fsum(det.bias for det in self.detectors)
        if abs(bias_sum) > BIAS_SUM_TOL:
            raise ValidationError(
                f"detector biases must sum to 0 within {BIAS_SUM_TOL:g}, got {bias_sum!r}"
            )
        if not 0.0 <= self.dark_count_prob_total < 1.0:
            raise ValidationError(
                f"dark_count_prob_total must be in [0, 1), got {self.dark_count_prob_total!r}"
            )
        _check_prob("intrinsic_error", self.intrinsic_error)
        _check_prob("background_error", self.background_error)
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValidationError(
                f"detector_efficiency must be in (0, 1], got {self.detector_efficiency!r}"
            )

    @classmethod
    def identical(
        cls,
        num_detectors: int,
        afterpulse_prob: float = 0.0,
        *,
        dark_count_prob_total: float,
        intrinsic_error: float,
        background_error: float = 0.5,
        detector_efficiency: float = 0.1,
    ) -> "ReceiverModel":
        """Build an unbiased array of identical detectors.

        ``dark_count_prob_total`` is the per-gate dark-count probability of
        the whole array.
        """
        if num_detectors < 1:
            raise ValidationError(f"num_detectors must be >= 1, got {num_detectors!r}")
        units = tuple(DetectorUnit(afterpulse_prob) for _ in range(num_detectors))
        return cls(
            detectors=units,
            dark_count_prob_total=dark_count_prob_total,
            intrinsic_error=intrinsic_error,
            background_error=background_error,
            detector_efficiency=detector_efficiency,
        )


@dataclass(frozen=True)
class ChannelModel:
    """Quantum channel loss budget.

    Give either ``attenuation_db_per_km`` with ``distance_km`` or the total
    ``transmission_loss_db`` directly. The overall transmittance combines the
    channel loss with the receiver's detector efficiency.
    """

    attenuation_db_per_km: float | None = None
    distance_km: float | None = None
    transmission_loss_db: float | None = None

    def __post_init__(self) -> None:
        # `not x >= 0.0` rejects NaN too. An infinite loss or distance is an
        # opaque channel; an infinite attenuation would make 0 km NaN dB, and
        # so would 0 dB/km over an infinite distance.
        if self.attenuation_db_per_km is not None and not self.attenuation_db_per_km >= 0.0:
            raise ValidationError(
                f"attenuation_db_per_km must be >= 0, got {self.attenuation_db_per_km!r}"
            )
        if self.attenuation_db_per_km == math.inf:
            raise ValidationError("attenuation_db_per_km must be finite, got inf")
        if self.transmission_loss_db is None:
            if self.attenuation_db_per_km is None or self.distance_km is None:
                raise ValidationError(
                    "channel needs attenuation_db_per_km and distance_km, "
                    "or transmission_loss_db"
                )
            if not self.distance_km >= 0.0:
                raise ValidationError(f"distance_km must be >= 0, got {self.distance_km!r}")
            if self.distance_km == math.inf and self.attenuation_db_per_km == 0.0:
                raise ValidationError(
                    "distance_km must be finite when attenuation_db_per_km is 0, got inf"
                )
        else:
            if self.distance_km is not None:
                raise ValidationError(
                    "give either distance_km or transmission_loss_db, not both"
                )
            if not self.transmission_loss_db >= 0.0:
                raise ValidationError(
                    f"transmission_loss_db must be >= 0, got {self.transmission_loss_db!r}"
                )

    @property
    def loss_db(self) -> float:
        if self.transmission_loss_db is not None:
            return self.transmission_loss_db
        return self.attenuation_db_per_km * self.distance_km

    @property
    def channel_transmittance(self) -> float:
        return 10.0 ** (-self.loss_db / 10.0)


@dataclass(frozen=True)
class IntensitySet:
    """Mean photon numbers of the three pulse classes of the weak+vacuum protocol.

    Only the ideal vacuum decoy (intensity exactly 0) is modeled; the weak
    decoy must be strictly weaker than the signal.
    """

    signal_mu: float
    weak_decoy_nu1: float
    vacuum_decoy: float = 0.0

    def __post_init__(self) -> None:
        if self.weak_decoy_nu1 < 0.0:
            raise ValidationError(
                f"weak_decoy_nu1 must be >= 0, got {self.weak_decoy_nu1!r}"
            )
        if not self.weak_decoy_nu1 < self.signal_mu:
            raise ValidationError(
                f"weak_decoy_nu1 ({self.weak_decoy_nu1!r}) must be below "
                f"signal_mu ({self.signal_mu!r})"
            )
        if self.vacuum_decoy != 0.0:
            raise ValidationError(
                "only the ideal vacuum decoy (intensity 0) is modeled, "
                f"got {self.vacuum_decoy!r}"
            )


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol-level constants: basis-sifting factor and error-correction efficiency."""

    sifting_factor: float = 0.5
    ec_efficiency: float = 1.16

    def __post_init__(self) -> None:
        if not 0.0 < self.sifting_factor <= 1.0:
            raise ValidationError(
                f"sifting_factor must be in (0, 1], got {self.sifting_factor!r}"
            )
        if not self.ec_efficiency >= 1.0:
            raise ValidationError(
                f"ec_efficiency must be >= 1, got {self.ec_efficiency!r}"
            )


def aggregate_afterpulse(receiver: ReceiverModel) -> float:
    """Collapse the per-detector afterpulse probabilities into one value.

    Weighted mean sum_m (1/N)(1 + r_m) p_m. The weights are nonnegative and
    sum to one, so the result is a convex combination of the per-detector
    probabilities.
    """
    n = len(receiver.detectors)
    total = math.fsum(
        (1.0 + det.bias) * det.afterpulse_prob for det in receiver.detectors
    )
    return total / n


def transmittance(receiver: ReceiverModel, channel: ChannelModel) -> float:
    """Overall single-photon transmittance: channel loss times detector efficiency."""
    return receiver.detector_efficiency * channel.channel_transmittance


def multi_photon_transmittance(eta: float, i: int) -> float:
    """Detection probability for an i-photon state, photons independent: 1 - (1 - eta)^i."""
    if i == 0:
        return 0.0
    if eta >= 1.0:
        return 1.0
    # expm1/log1p keep precision when eta is tiny
    return -math.expm1(i * math.log1p(-eta))


def yield_background(receiver: ReceiverModel) -> float:
    """Background yield: dark counts plus the afterpulses they trigger, (1 + p_ap) p_dc."""
    return (1.0 + aggregate_afterpulse(receiver)) * receiver.dark_count_prob_total


def yield_i(receiver: ReceiverModel, channel: ChannelModel, i: int) -> float:
    """Yield of an i-photon state: Y0 + eta_i (1 + p_ap) for i >= 1, Y0 for i = 0."""
    if i < 0:
        raise ValidationError(f"photon number must be >= 0, got {i!r}")
    eta_i = multi_photon_transmittance(transmittance(receiver, channel), i)
    background, signal, _ = _gain_terms(receiver, eta_i)
    return background + signal


def qber_i(receiver: ReceiverModel, channel: ChannelModel, i: int) -> float:
    """Error rate of an i-photon state.

    [e0 Y0 + (e' + e0 p_ap) eta_i] / Y_i.  The afterpulse term e0 p_ap enters
    the signal contribution because an afterpulse following a signal detection
    lands in either detector with equal probability.
    """
    y_i = yield_i(receiver, channel, i)
    if y_i <= 0.0:
        raise DegenerateInputError(
            f"yield of the {i}-photon state is zero; error rate undefined"
        )
    eta_i = multi_photon_transmittance(transmittance(receiver, channel), i)
    return gain_and_qber(*_gain_terms(receiver, eta_i), receiver.background_error)[1]


def gain_total(receiver: ReceiverModel, channel: ChannelModel, mean_photon: float) -> float:
    """Total gain of a Poissonian source of the given mean photon number.

    Y0 + (1 - exp(-eta mu)) (1 + p_ap). At mean_photon = 0 this is exactly the
    background yield, i.e. the vacuum-decoy measurement.
    """
    if not mean_photon >= 0.0:  # rejects NaN too
        raise ValidationError(f"mean_photon must be >= 0, got {mean_photon!r}")
    detected = -math.expm1(-transmittance(receiver, channel) * mean_photon)
    background, signal, _ = _gain_terms(receiver, detected)
    gain = background + signal
    check_gain(gain)
    return gain


def check_gain(gain: float) -> None:
    """Reject a total gain above 1, which the single-order afterpulse model cannot produce."""
    if gain > 1.0:
        raise ModelDomainError(
            f"total gain {gain!r} exceeds 1: afterpulse probability too large for "
            "the single-order afterpulse model"
        )


def check_detections(gain: float) -> None:
    """Reject a zero total gain, for which no error rate is defined."""
    if gain <= 0.0:
        raise DegenerateInputError(
            "total gain is zero (no dark counts and an opaque channel); "
            "error rate undefined"
        )


def qber_total(receiver: ReceiverModel, channel: ChannelModel, mean_photon: float) -> float:
    """Total error rate of a Poissonian source of the given mean photon number.

    [e0 Y0 + (e' + e0 p_ap)(1 - exp(-eta mu))] / Q.
    """
    check_detections(gain_total(receiver, channel, mean_photon))
    detected = -math.expm1(-transmittance(receiver, channel) * mean_photon)
    return gain_and_qber(*_gain_terms(receiver, detected), receiver.background_error)[1]


def _gain_terms(receiver: ReceiverModel, detected: float) -> tuple[float, float, float]:
    """The terms of ``gain_and_qber`` for a signal detected with probability ``detected``."""
    p_ap = aggregate_afterpulse(receiver)
    signal_error = (receiver.intrinsic_error + receiver.background_error * p_ap) * detected
    return yield_background(receiver), detected * (1.0 + p_ap), signal_error


def gain_and_qber(background, signal, signal_error, e0):
    """Total gain and QBER, unchecked; floats or arrays.

    ``background`` is the background yield (1 + p_ap) p_dc, ``signal`` the
    signal gain (1 + p_ap) d and ``signal_error`` its erroneous part
    (e' + e0 p_ap) d, for a signal detected with probability d.
    """
    gain = background + signal
    return gain, (e0 * background + signal_error) / gain


def effective_baseline_error(
    intrinsic_error: float, background_error: float, afterpulse_prob: float
) -> float:
    """Baseline system error rate including the afterpulse contribution.

    (e' + e0 p_ap) / (1 + p_ap): a weighted mean of the intrinsic error and
    the background error, saturating toward e0 as p_ap grows. ``afterpulse_prob``
    accepts any value >= 0 so the large-p_ap saturation can be studied.
    """
    _check_baseline(intrinsic_error, background_error, afterpulse_prob)
    return e_detector(intrinsic_error, background_error, afterpulse_prob)


def _check_baseline(e_prime: float, e0: float, p_ap: float) -> None:
    """Reject error rates outside [0, 1] and an afterpulse probability below 0, NaN included."""
    _check_prob("intrinsic_error", e_prime)
    _check_prob("background_error", e0)
    if not p_ap >= 0.0:
        raise ValidationError(f"afterpulse_prob must be >= 0, got {p_ap!r}")


def e_detector(e_prime, e0, p_ap):
    """(e' + e0 p_ap) / (1 + p_ap), unchecked; floats or arrays."""
    return (e_prime + e0 * p_ap) / (1.0 + p_ap)


def baseline_error_change(
    intrinsic_error: float, background_error: float, afterpulse_prob: float
) -> float:
    """Relative change of the baseline error rate caused by afterpulsing.

    (e_detector - e') / e' = (e0/e' - 1) p_ap / (1 + p_ap), undefined for an
    intrinsic error of 0 or below the smallest normal float.
    """
    _check_baseline(intrinsic_error, background_error, afterpulse_prob)
    # below the smallest normal float e0/e' overflows (inf, or nan at p_ap = 0)
    if intrinsic_error < sys.float_info.min:
        raise DegenerateInputError(
            f"relative baseline change undefined for intrinsic_error = {intrinsic_error:g}"
        )
    return relative_change(intrinsic_error, background_error, afterpulse_prob)


def relative_change(e_prime, e0, p_ap):
    """(e0/e' - 1) p_ap / (1 + p_ap), unchecked; floats or arrays."""
    return (e0 / e_prime - 1.0) * p_ap / (1.0 + p_ap)


def visibility(
    intrinsic_error: float, background_error: float, afterpulse_prob: float
) -> float:
    """Interference visibility implied by the baseline error rate: 1 - 2 e_detector."""
    return 1.0 - 2.0 * effective_baseline_error(
        intrinsic_error, background_error, afterpulse_prob
    )


# The sweep specs: the metric and axis name tables, Axis and SweepSpec. They
# live here, with no numpy, so that parsing a scenario loads no array code.

# Metrics computable from (intrinsic_error, background_error, p_ap) alone;
# these stay valid for afterpulse values beyond the per-detector range.
SCALAR_METRICS = ("p_ap", "e_detector", "baseline_error_change", "visibility")
LINK_METRICS = (
    "y0",
    "q_mu",
    "e_mu",
    "q_nu1",
    "e_nu1",
    "y1_lower",
    "e1_upper",
    "q1_lower",
    "skr_raw",
    "skr_lower",
    "skr_approx",
)
METRIC_NAMES = SCALAR_METRICS + LINK_METRICS

# Axis name -> (kernel input it sets, lowest and highest value a sweep axis
# may span, None = unbounded), in the order ``bounds.Grid.rejections`` reports them.
AXES = {
    "p_ap": ("p_ap", 0.0, None),
    "loss_db": ("eta", 0.0, None),
    "distance_km": ("eta", 0.0, None),
    "intrinsic_error": ("e_prime", 0.0, 1.0),
    "dark_count_prob": ("p_dc", 0.0, 1.0),
    "signal_mu": ("mu", 0.0, None),
    "weak_decoy_nu1": ("nu1", 0.0, None),
}
AXIS_NAMES = tuple(AXES)

MAX_GRID_POINTS = 1_000_000

MU_POLICIES = ("fixed", "optimize-per-point")


@dataclass(frozen=True)
class Axis:
    """One swept parameter: an inclusive range with linear or log spacing."""

    name: str
    min: float
    max: float
    count: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if self.name not in AXES:
            raise ValidationError(
                f"unknown axis {self.name!r}; expected one of {', '.join(AXIS_NAMES)}"
            )
        if self.count < 1:
            raise ValidationError(f"axis {self.name}: count must be >= 1, got {self.count!r}")
        if self.spacing not in ("linear", "log"):
            raise ValidationError(
                f"axis {self.name}: spacing must be 'linear' or 'log', got {self.spacing!r}"
            )
        if not self.min <= self.max:
            raise ValidationError(
                f"axis {self.name}: min {self.min!r} must not exceed max {self.max!r}"
            )
        if self.spacing == "log" and self.min <= 0.0:
            raise ValidationError(
                f"axis {self.name}: log spacing needs positive endpoints, got min={self.min!r}"
            )
        _, lo, hi = AXES[self.name]
        if self.min < lo or (hi is not None and self.max > hi):
            domain = f"[{lo:g}, {hi:g}]" if hi is not None else f"[{lo:g}, inf)"
            raise ValidationError(
                f"axis {self.name}: bounds outside the physical domain {domain}"
            )
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValidationError(
                f"axis {self.name}: endpoints must be finite, "
                f"got min={self.min!r} max={self.max!r}"
            )

    def values(self) -> tuple[float, ...]:
        # numpy loads here, not with the module; a pure-Python logspace
        # would not give numpy's last bits.
        import numpy as np

        if self.spacing == "log":
            points = np.logspace(np.log10(self.min), np.log10(self.max), self.count)
        else:
            points = np.linspace(self.min, self.max, self.count)
        return tuple(float(v) for v in points)


def check_grid_size(points: int) -> None:
    """Reject a grid of more than MAX_GRID_POINTS nodes."""
    if points > MAX_GRID_POINTS:
        raise ValidationError(f"grid has {points} points, above the cap of {MAX_GRID_POINTS}")


@dataclass(frozen=True)
class SweepSpec:
    """A base operating point plus up to three axes to sweep over it."""

    receiver: ReceiverModel
    channel: ChannelModel
    intensities: IntensitySet
    protocol: ProtocolParams
    axes: tuple[Axis, ...]
    outputs: tuple[str, ...] = ("skr_lower",)
    mu_policy: str = "fixed"

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(self.axes) > 3:
            raise ValidationError(f"at most 3 axes supported, got {len(self.axes)}")
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate axis names: {names}")
        if "loss_db" in names and "distance_km" in names:
            raise ValidationError("loss_db and distance_km axes are mutually exclusive")
        if "distance_km" in names and self.channel.attenuation_db_per_km is None:
            raise ValidationError(
                "distance_km axis requires channel.attenuation_db_per_km"
            )
        if "signal_mu" in names and self.mu_policy == "optimize-per-point":
            raise ValidationError(
                "a signal_mu axis is incompatible with mu_policy optimize-per-point"
            )
        if not self.outputs:
            raise ValidationError("outputs must name at least one metric")
        for name in self.outputs:
            if name not in METRIC_NAMES:
                raise ValidationError(
                    f"unknown output metric {name!r}; expected one of {', '.join(METRIC_NAMES)}"
                )
        if self.mu_policy not in MU_POLICIES:
            raise ValidationError(
                f"mu_policy must be one of {MU_POLICIES}, got {self.mu_policy!r}"
            )
        check_grid_size(math.prod(ax.count for ax in self.axes))

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)
