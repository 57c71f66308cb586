"""Numerical solvers: optimal signal intensity and iso-QBER threshold tracing."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import model
from .bounds import binary_entropy, evaluate_link
from .errors import (
    DegenerateInputError,
    ModelDomainError,
    NoSolutionError,
    ValidationError,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Search interval for the dark-count threshold and lower margin above the
# weak-decoy intensity when bracketing the signal intensity.
DARK_COUNT_CAP = 0.1
MU_BRACKET_MARGIN = 1e-6
MU_BRACKET_MAX = 1.5
_GRID_SEED_POINTS = 64


@dataclass(frozen=True)
class SolverConfig:
    abs_tolerance: float = 1e-10
    max_iterations: int = 200
    bracket: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.abs_tolerance <= 0.0:
            raise ValidationError(f"abs_tolerance must be > 0, got {self.abs_tolerance!r}")
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if self.bracket is not None:
            lo, hi = self.bracket
            if not lo < hi:
                raise ValidationError(f"bracket lower bound must be below upper, got {self.bracket!r}")


@dataclass(frozen=True)
class OptimalMu:
    """Root of the optimal-intensity condition, with its residual.

    ``boundary`` marks the degenerate zero-error case where the condition's
    right side vanishes and the optimum sits at the interval edge mu = 1.
    """

    mu: float
    residual: float
    boundary: bool = False


@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of the direct key-rate maximization over the signal intensity."""

    mu: float
    skr: float
    reason: str | None = None


@dataclass(frozen=True)
class ContourPoint:
    """One node of an iso-QBER surface: the dark-count level meeting the target.

    Infeasible nodes (target unreachable even without dark counts) carry None
    in ``dark_count_prob`` and ``achieved_qber``.
    """

    p_ap: float
    intrinsic_error: float
    loss_db: float
    dark_count_prob: float | None
    achieved_qber: float | None
    feasible: bool


def _mu_condition(mu: float) -> float:
    return (1.0 - mu) * math.exp(-mu)


def solve_optimal_mu(
    e_detector: float,
    protocol: model.ProtocolParams,
    config: SolverConfig = SolverConfig(),
) -> OptimalMu:
    """Solve (1 - mu) e^-mu = f H2(e) / (1 - H2(e)) for the signal intensity.

    The left side falls strictly from 1 to 0 on (0, 1), so any right side in
    (0, 1) has exactly one root there, found by bisection to the configured
    residual tolerance. Raises NoSolutionError when the right side reaches 1
    (error rate too high for a positive-rate optimum below saturation).
    """
    h = binary_entropy(e_detector)
    if h >= 1.0:
        raise NoSolutionError(
            f"binary entropy saturates at e_detector={e_detector!r}; no optimum exists"
        )
    rhs = protocol.ec_efficiency * h / (1.0 - h)
    if rhs >= 1.0:
        raise NoSolutionError(
            f"error rate too high (e_detector={e_detector!r}): the condition's right "
            f"side is {rhs:g} >= 1, outside the solvable range"
        )
    if rhs <= 0.0:
        return OptimalMu(mu=1.0, residual=abs(_mu_condition(1.0) - rhs), boundary=True)
    lo, hi = config.bracket if config.bracket is not None else (0.0, 1.0)
    if _mu_condition(lo) < rhs or _mu_condition(hi) > rhs:
        raise ValidationError(
            f"bracket ({lo!r}, {hi!r}) does not enclose the root for rhs={rhs:g}"
        )
    mid = 0.5 * (lo + hi)
    residual = _mu_condition(mid) - rhs
    for _ in range(config.max_iterations):
        if abs(residual) < config.abs_tolerance:
            break
        if residual > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        residual = _mu_condition(mid) - rhs
    return OptimalMu(mu=mid, residual=abs(residual))


def _golden_section_max(fun, lo: float, hi: float, tol: float, max_iter: int):
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc = fun(c)
    fd = fun(d)
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = fun(d)
    x = 0.5 * (lo + hi)
    return x, fun(x)


def maximize_skr_over_mu(
    receiver: model.ReceiverModel,
    channel: model.ChannelModel,
    nu1: float,
    protocol: model.ProtocolParams,
    config: SolverConfig = SolverConfig(),
) -> MaximizeResult:
    """Maximize the key-rate lower bound over the signal intensity.

    Seeds a 64-point grid over the bracket, then refines the best interval by
    golden-section search. The rate is unimodal in practice; the grid guards
    against stray local maxima. When no intensity yields a positive key the
    result carries skr = 0 and a reason, never an exception.
    """
    lo, hi = (
        config.bracket
        if config.bracket is not None
        else (nu1 + MU_BRACKET_MARGIN, MU_BRACKET_MAX)
    )
    if not nu1 < lo:
        raise ValidationError(
            f"bracket lower bound {lo!r} must exceed the weak-decoy intensity {nu1!r}"
        )
    if not lo < hi:
        raise ValidationError(
            f"empty signal-intensity bracket ({lo!r}, {hi!r}); the weak-decoy "
            "intensity leaves no room below the bracket top"
        )

    def objective(mu: float) -> float:
        try:
            metrics = evaluate_link(
                receiver, channel, model.IntensitySet(mu, nu1), protocol
            )
        except (ModelDomainError, DegenerateInputError):
            return -math.inf
        return metrics.skr_lower

    xs = [
        lo + (hi - lo) * k / (_GRID_SEED_POINTS - 1) for k in range(_GRID_SEED_POINTS)
    ]
    vals = [objective(x) for x in xs]
    best = max(range(_GRID_SEED_POINTS), key=lambda k: vals[k])
    a = xs[max(0, best - 1)]
    b = xs[min(_GRID_SEED_POINTS - 1, best + 1)]
    mu_star, skr_star = _golden_section_max(
        objective, a, b, config.abs_tolerance, config.max_iterations
    )
    if not skr_star > 0.0:
        return MaximizeResult(mu=mu_star, skr=0.0, reason="no_positive_key")
    return MaximizeResult(mu=mu_star, skr=skr_star)


def _receiver_at(
    template: model.ReceiverModel, p_ap: float, intrinsic_error: float, dark_count: float
) -> model.ReceiverModel:
    detectors = tuple(
        replace(det, afterpulse_prob=p_ap) for det in template.detectors
    )
    return replace(
        template,
        detectors=detectors,
        intrinsic_error=intrinsic_error,
        dark_count_prob_total=dark_count,
    )


def dark_count_threshold(
    p_ap: float,
    intrinsic_error: float,
    loss_db: float,
    target_qber: float,
    receiver_template: model.ReceiverModel,
    mean_photon: float,
    config: SolverConfig = SolverConfig(),
) -> ContourPoint:
    """Largest dark-count probability that keeps the total QBER at the target.

    The QBER rises monotonically with the dark-count level toward the
    background error rate, so the threshold is found by bisection on
    [0, DARK_COUNT_CAP]. When even zero dark counts exceed the target the
    node is reported infeasible (a value, not an error). A target so lax
    that the cap cannot reach it is a parameter error.
    """
    if not 0.0 < target_qber < 0.5:
        raise ValidationError(f"target_qber must be in (0, 0.5), got {target_qber!r}")
    if mean_photon <= 0.0:
        raise ValidationError(f"mean_photon must be > 0, got {mean_photon!r}")
    channel = model.ChannelModel(transmission_loss_db=loss_db)

    def qber_at(dark_count: float) -> float:
        receiver = _receiver_at(receiver_template, p_ap, intrinsic_error, dark_count)
        return model.qber_total(receiver, channel, mean_photon)

    floor = qber_at(0.0)
    if floor > target_qber:
        return ContourPoint(
            p_ap=p_ap,
            intrinsic_error=intrinsic_error,
            loss_db=loss_db,
            dark_count_prob=None,
            achieved_qber=None,
            feasible=False,
        )
    ceiling = qber_at(DARK_COUNT_CAP)
    if ceiling < target_qber:
        raise ValidationError(
            f"target_qber={target_qber!r} not reachable below the dark-count "
            f"search cap {DARK_COUNT_CAP!r} (QBER at cap: {ceiling:g})"
        )
    lo, hi = 0.0, DARK_COUNT_CAP
    mid = 0.5 * (lo + hi)
    achieved = qber_at(mid)
    for _ in range(config.max_iterations):
        if abs(achieved - target_qber) < config.abs_tolerance:
            break
        if achieved < target_qber:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        achieved = qber_at(mid)
    return ContourPoint(
        p_ap=p_ap,
        intrinsic_error=intrinsic_error,
        loss_db=loss_db,
        dark_count_prob=mid,
        achieved_qber=achieved,
        feasible=True,
    )


def trace_iso_qber_surface(
    p_ap_values,
    intrinsic_error_values,
    loss_db: float,
    target_qber: float,
    receiver_template: model.ReceiverModel,
    mean_photon: float,
    config: SolverConfig = SolverConfig(),
) -> list[ContourPoint]:
    """Dark-count threshold on every node of a (p_ap, intrinsic_error) grid.

    Nodes are evaluated independently and returned in row-major order
    (p_ap outer, intrinsic_error inner), so the output is deterministic and
    identical regardless of evaluation order.
    """
    return [
        dark_count_threshold(
            p_ap, e_prime, loss_db, target_qber, receiver_template, mean_photon, config
        )
        for p_ap in p_ap_values
        for e_prime in intrinsic_error_values
    ]
