"""Scenario engine: evaluate link metrics over parameter grids."""
from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .bounds import evaluate_link
from .errors import DegenerateInputError, ModelDomainError, ValidationError
from .optimize import maximize_skr_over_mu

MAX_GRID_POINTS = 1_000_000

# Optimized weak-decoy intensities are only tabulated for these losses; any
# other loss requires an explicit weak_decoy_nu1 (no interpolation).
NU1_BY_LOSS_DB = {0.0: 0.038, 5.0: 0.05, 21.0: 0.12}

# Physical (lower, upper) domain per axis; None upper bound = unbounded.
_AXIS_DOMAINS = {
    "p_ap": (0.0, None),
    "loss_db": (0.0, None),
    "distance_km": (0.0, None),
    "intrinsic_error": (0.0, 1.0),
    "dark_count_prob": (0.0, 1.0),
    "signal_mu": (0.0, None),
    "weak_decoy_nu1": (0.0, None),
}
AXIS_NAMES = tuple(_AXIS_DOMAINS)

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
        if self.name not in _AXIS_DOMAINS:
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
        lo, hi = _AXIS_DOMAINS[self.name]
        if self.min < lo or (hi is not None and self.max > hi):
            domain = f"[{lo:g}, {hi:g}]" if hi is not None else f"[{lo:g}, inf)"
            raise ValidationError(
                f"axis {self.name}: bounds outside the physical domain {domain}"
            )

    def values(self) -> tuple[float, ...]:
        if self.spacing == "log":
            points = np.logspace(np.log10(self.min), np.log10(self.max), self.count)
        else:
            points = np.linspace(self.min, self.max, self.count)
        return tuple(float(v) for v in points)


@dataclass(frozen=True)
class SweepSpec:
    """A base operating point plus up to three axes to sweep over it."""

    receiver: model.ReceiverModel
    channel: model.ChannelModel
    intensities: model.IntensitySet
    protocol: model.ProtocolParams
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
        total = 1
        for ax in self.axes:
            total *= ax.count
        if total > MAX_GRID_POINTS:
            raise ValidationError(
                f"grid has {total} points, above the cap of {MAX_GRID_POINTS}"
            )

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)

    def needs_link_model(self) -> bool:
        return self.mu_policy == "optimize-per-point" or any(
            name in LINK_METRICS for name in self.outputs
        )


@dataclass(frozen=True)
class ResultRecord:
    """One grid node: axis values, requested metrics, and a status."""

    axis_values: tuple[float, ...]
    values: tuple[float | None, ...]
    mu_opt: float | None
    status: str
    reason: str | None = None


def distance_to_loss(distance_km: float, attenuation_db_per_km: float) -> float:
    """Fiber loss budget in dB for a span of the given length."""
    if distance_km < 0.0:
        raise ValidationError(f"distance_km must be >= 0, got {distance_km!r}")
    if attenuation_db_per_km < 0.0:
        raise ValidationError(
            f"attenuation_db_per_km must be >= 0, got {attenuation_db_per_km!r}"
        )
    return attenuation_db_per_km * distance_km


def _apply_overrides(spec: SweepSpec, overrides: dict[str, float]):
    receiver = spec.receiver
    channel = spec.channel
    intensities = spec.intensities
    if "p_ap" in overrides:
        detectors = tuple(
            replace(det, afterpulse_prob=overrides["p_ap"]) for det in receiver.detectors
        )
        receiver = replace(receiver, detectors=detectors)
    if "intrinsic_error" in overrides:
        receiver = replace(receiver, intrinsic_error=overrides["intrinsic_error"])
    if "dark_count_prob" in overrides:
        receiver = replace(receiver, dark_count_prob_total=overrides["dark_count_prob"])
    if "loss_db" in overrides:
        channel = model.ChannelModel(transmission_loss_db=overrides["loss_db"])
    if "distance_km" in overrides:
        channel = model.ChannelModel(
            attenuation_db_per_km=spec.channel.attenuation_db_per_km,
            distance_km=overrides["distance_km"],
        )
    if "signal_mu" in overrides or "weak_decoy_nu1" in overrides:
        intensities = model.IntensitySet(
            signal_mu=overrides.get("signal_mu", intensities.signal_mu),
            weak_decoy_nu1=overrides.get("weak_decoy_nu1", intensities.weak_decoy_nu1),
        )
    return receiver, channel, intensities


def _evaluate_node(spec: SweepSpec, node: tuple[float, ...]) -> ResultRecord:
    overrides = dict(zip(spec.axis_names, node))
    e0 = spec.receiver.background_error
    e_prime = overrides.get("intrinsic_error", spec.receiver.intrinsic_error)
    p_ap = overrides.get("p_ap", model.aggregate_afterpulse(spec.receiver))

    out: dict[str, float | None] = {}
    status = "ok"
    reason: str | None = None
    mu_opt: float | None = None

    try:
        for name in spec.outputs:
            if name == "p_ap":
                out[name] = p_ap
            elif name == "e_detector":
                out[name] = model.effective_baseline_error(e_prime, e0, p_ap)
            elif name == "baseline_error_change":
                out[name] = model.baseline_error_change(e_prime, e0, p_ap)
            elif name == "visibility":
                out[name] = model.visibility(e_prime, e0, p_ap)
    except (ValidationError, DegenerateInputError) as exc:
        status, reason = "model-domain-error", str(exc)

    if status == "ok" and spec.needs_link_model():
        try:
            receiver, channel, intensities = _apply_overrides(spec, overrides)
            optimizer_note = None
            if spec.mu_policy == "optimize-per-point":
                result = maximize_skr_over_mu(
                    receiver, channel, intensities.weak_decoy_nu1, spec.protocol
                )
                mu_opt = result.mu
                optimizer_note = result.reason
                intensities = replace(intensities, signal_mu=result.mu)
            metrics = evaluate_link(receiver, channel, intensities, spec.protocol)
        except (ValidationError, ModelDomainError, DegenerateInputError) as exc:
            status, reason = "model-domain-error", str(exc)
        else:
            if metrics.reason is not None:
                status, reason = "infeasible", metrics.reason
            elif optimizer_note is not None:
                reason = optimizer_note
            estimate = metrics.estimate
            link_values = {
                "y0": metrics.y0_measured,
                "q_mu": metrics.q_mu,
                "e_mu": metrics.e_mu,
                "q_nu1": metrics.q_nu1,
                "e_nu1": metrics.e_nu1,
                "y1_lower": estimate.y1_lower if estimate else None,
                "e1_upper": estimate.e1_upper if estimate else None,
                "q1_lower": estimate.q1_lower if estimate else None,
                "skr_raw": metrics.skr_raw,
                "skr_lower": metrics.skr_lower,
                "skr_approx": metrics.skr_approx,
            }
            for name in spec.outputs:
                if name in link_values:
                    out[name] = link_values[name]

    values = tuple(out.get(name) for name in spec.outputs)
    return ResultRecord(
        axis_values=node, values=values, mu_opt=mu_opt, status=status, reason=reason
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[ResultRecord]:
    """Evaluate every grid node, in lexicographic grid order.

    Nodes are independent; with ``workers`` > 1 they are farmed out to a
    thread pool and gathered back in grid order, so the output is identical
    to the serial run. Per-node failures are recorded in the node's status
    and never abort the sweep.
    """
    nodes = itertools.product(*(ax.values() for ax in spec.axes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda node: _evaluate_node(spec, node), nodes))
    return [_evaluate_node(spec, node) for node in nodes]
