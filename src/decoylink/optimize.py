"""Numerical solvers: optimal signal intensity and iso-QBER threshold tracing."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .bounds import (
    Grid, LinkTable, binary_entropy, boxes, check_decoy_pair, cut, mu_core, mu_stage,
    node_stage, per_node, raised,
)
from .errors import DecoyLinkError, NoSolutionError, ValidationError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Search interval for the dark-count threshold and lower margin above the
# weak-decoy intensity when bracketing the signal intensity.
DARK_COUNT_CAP = 0.1
MU_BRACKET_MARGIN = 1e-6
MU_BRACKET_MAX = 1.5
_GRID_SEED_POINTS = 64
# Most points per probe (one bounds.mu_core call) of the intensity search: a
# seed-grid probe takes a bounds.boxes box of whole nodes of
# _GRID_SEED_POINTS points each (at least one node), a golden-section step
# runs of this many nodes. Bounds the kernel's temporaries however many
# nodes search together; the final table at the optimum is one
# bounds.mu_stage call per slab, as a fixed-mu link_table call is.
_SEED_SLICE_ROWS = 2048
# Reason reported when no signal intensity in the bracket gives a positive key.
NO_POSITIVE_KEY = "no_positive_key"


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
    ``converged`` is False when the bisection ran out of iterations before
    the residual fell below the tolerance; ``iterations`` counts its steps.
    """

    mu: float
    residual: float
    boundary: bool = False
    converged: bool = True
    iterations: int = 0


@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of the direct key-rate maximization over the signal intensity.

    ``converged`` is False when the golden-section search ran out of
    iterations before its bracket shrank to the tolerance; ``iterations``
    counts its steps.
    """

    mu: float
    skr: float
    reason: str | None = None
    converged: bool = True
    iterations: int = 0


@dataclass(frozen=True)
class MuSearch:
    """Outcome of the lockstep key-rate maximization at the nodes of a shape.

    Each array has the nodes' shape, the broadcast shape of the inputs.
    ``skr`` is the objective at ``mu``: the key-rate lower bound, 0 where
    decoy estimation is infeasible, -inf where the link model rejects the
    node. ``table`` holds every metric at ``mu``. ``errors`` maps the nodes,
    by row-major position, whose search raised, as ``maximize_skr_over_mu``
    would, to the exception; their other entries are meaningless.
    """

    mu: np.ndarray
    skr: np.ndarray
    table: LinkTable
    errors: dict[int, DecoyLinkError]
    converged: np.ndarray
    iterations: np.ndarray


@dataclass(frozen=True)
class ThresholdSearch:
    """Outcome of the lockstep dark-count bisection at a 1-D array of nodes.

    ``dark_count`` and ``achieved`` are NaN at infeasible nodes.
    """

    dark_count: np.ndarray
    achieved: np.ndarray
    feasible: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


@dataclass(frozen=True)
class ContourPoint:
    """One node of an iso-QBER surface: the dark-count level meeting the target.

    Infeasible nodes (target unreachable even without dark counts) carry None
    in ``dark_count_prob`` and ``achieved_qber``. ``converged`` is False when
    the bisection ran out of iterations before ``achieved_qber`` met the
    target within the tolerance; ``iterations`` counts its steps.
    """

    p_ap: float
    intrinsic_error: float
    loss_db: float
    dark_count_prob: float | None
    achieved_qber: float | None
    feasible: bool
    converged: bool = True
    iterations: int = 0


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
    iterations = 0
    for _ in range(config.max_iterations):
        if abs(residual) < config.abs_tolerance:
            break
        if residual > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        residual = _mu_condition(mid) - rhs
        iterations += 1
    return OptimalMu(
        mu=mid,
        residual=abs(residual),
        converged=abs(residual) < config.abs_tolerance,
        iterations=iterations,
    )


def _check_mu_bracket(nu1: float, lo: float, hi: float) -> None:
    if not nu1 < lo:
        raise ValidationError(
            f"bracket lower bound {lo!r} must exceed the weak-decoy intensity {nu1!r}"
        )
    if not lo < hi:
        raise ValidationError(
            f"empty signal-intensity bracket ({lo!r}, {hi!r}); the weak-decoy "
            "intensity leaves no room below the bracket top"
        )


def maximize_nodes(
    p_ap: np.ndarray,
    e_prime: np.ndarray,
    p_dc: np.ndarray,
    eta: np.ndarray,
    nu1: np.ndarray,
    background_error: float,
    protocol: model.ProtocolParams,
    config: SolverConfig = SolverConfig(),
) -> MuSearch:
    """``maximize_skr_over_mu`` at every node of arrays that broadcast together, in lockstep.

    The arguments, and so the nodes, are those of ``link_table`` without the
    signal intensity. ``bounds.node_stage`` computes the terms that do not
    depend on mu once, at the arguments' shapes, and each probe runs only
    ``bounds.mu_core``, in calls of at most _SEED_SLICE_ROWS points. The
    64-point seed grid runs over the ``bounds.boxes`` of at most
    _SEED_SLICE_ROWS // 64 nodes, with the terms at their own shapes and a
    trailing axis of 64 points, so that a term of mu alone is computed once
    per distinct seed point. Each golden-section step runs over the nodes
    whose bracket is still wider than the tolerance, in runs of nodes, on
    the terms spread to one entry per node. The final table is one
    ``bounds.mu_stage`` call on the unspread terms. Each node follows the
    same arithmetic as a search of its own, so its result does not depend
    on the other nodes, on the slicing or on the shapes.
    """
    terms, outputs = node_stage(p_ap, e_prime, p_dc, eta, nu1, background_error)
    shape = np.broadcast_shapes(*(v.shape for v in (*terms.values(), *outputs.values())))
    n = math.prod(shape)
    nodes = np.arange(n)
    # The bracket, at nu1's shape or as 0-d arrays
    if config.bracket is None:
        bracket = (terms["nu1"] + MU_BRACKET_MARGIN, np.array(MU_BRACKET_MAX))
    else:
        bracket = tuple(np.array(float(b)) for b in config.bracket)
    nu1, lo, hi = (per_node(a, shape) for a in (terms["nu1"], *bracket))
    errors: dict[int, DecoyLinkError] = {
        int(i): raised(_check_mu_bracket, nu1[i], lo[i], hi[i])
        for i in np.flatnonzero(~(nu1 < lo) | ~(lo < hi))
    }
    failed = np.zeros(n, dtype=bool)
    failed[list(errors)] = True

    def record(decoy_error, rows, mu, nu1) -> None:
        """End each node of ``rows`` at its first point in search order outside 0 < nu1 < mu."""
        if not decoy_error.any():
            return
        shape = np.broadcast_shapes(decoy_error.shape, rows.shape, mu.shape, nu1.shape)
        at_rows, at_mu, at_nu1 = (per_node(a, shape) for a in (rows, mu, nu1))
        for j in np.flatnonzero(per_node(decoy_error, shape)).tolist():
            node = int(at_rows[j])
            if node not in errors:
                errors[node] = raised(check_decoy_pair, at_mu[j], at_nu1[j])
                failed[node] = True

    def objective(rows: np.ndarray, mu: np.ndarray, at: dict[str, np.ndarray]) -> np.ndarray:
        """The objective at ``mu`` on the terms ``at`` of nodes ``rows``, broadcast together."""
        core = mu_core(mu, background_error, protocol, **at)
        record(core["decoy_error"], rows, mu, at["nu1"])
        return np.where(core["gain_error"], -np.inf, core["skr_lower"])

    points = _GRID_SEED_POINTS

    def seed_points(lo, hi, k):
        """Points ``k`` of the seed grids of the brackets (``lo``, ``hi``), broadcast together."""
        # A rejected bracket can overflow here and below; its node's result is never used.
        with np.errstate(over="ignore", invalid="ignore"):
            return lo + (hi - lo) * k / (points - 1)

    # Each box's grid is built in its turn, so no (nodes, 64) array is held.
    best = np.empty(n, dtype=int)
    start = 0
    for box in boxes(shape, max(1, _SEED_SLICE_ROWS // points)):
        box_shape = tuple(map(len, box))
        size = math.prod(box_shape)
        rows = np.arange(start, start + size).reshape(box_shape + (1,))
        mu = seed_points(*(cut(a, box)[..., None] for a in bracket), np.arange(points, dtype=float))
        grid = objective(rows, mu, {name: cut(v, box)[..., None] for name, v in terms.items()})
        best[start:start + size] = np.argmax(
            per_node(grid, box_shape + (points,)).reshape(size, points), axis=1
        )
        start += size
    lo, hi = (
        seed_points(lo, hi, np.maximum(best - 1, 0)),
        seed_points(lo, hi, np.minimum(best + 1, points - 1)),
    )

    # Only what the probes read is spread to one entry per node.
    spread = {name: per_node(values, shape) for name, values in terms.items()}

    def probes(rows: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """The objective at 1-D ``rows`` and ``mu``, in runs of at most _SEED_SLICE_ROWS."""
        size = _SEED_SLICE_ROWS
        runs = [(rows[i:i + size], mu[i:i + size]) for i in range(0, len(rows), size)]
        f = [objective(r, m, {name: v[r] for name, v in spread.items()}) for r, m in runs]
        return f[0] if len(f) == 1 else np.concatenate(f)

    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    f = probes(np.concatenate([nodes, nodes]), np.concatenate([c, d]))
    fc, fd = f[:n], f[n:]
    iterations = np.zeros(n, dtype=int)
    for _ in range(config.max_iterations):
        active = ~failed & ~(hi - lo <= config.abs_tolerance)
        if not active.any():
            break
        up = np.flatnonzero(active & (fc > fd))
        down = np.flatnonzero(active & ~(fc > fd))
        hi[up], d[up], fd[up] = d[up], c[up], fc[up]
        c[up] = hi[up] - _INVPHI * (hi[up] - lo[up])
        lo[down], c[down], fc[down] = c[down], d[down], fd[down]
        d[down] = lo[down] + _INVPHI * (hi[down] - lo[down])
        f = probes(np.concatenate([up, down]), np.concatenate([c[up], d[down]]))
        fc[up] = f[: len(up)]
        fd[down] = f[len(up):]
        iterations[active] += 1
    with np.errstate(over="ignore", invalid="ignore"):
        mu = (0.5 * (lo + hi)).reshape(shape)
    table = mu_stage(mu, background_error, protocol, terms, outputs)
    record(table.decoy_error, nodes.reshape(shape), mu, table.nu1)
    return MuSearch(
        mu=mu,
        skr=np.where(table.gain_error, -np.inf, table.values["skr_lower"]),
        table=table,
        errors=errors,
        converged=(hi - lo <= config.abs_tolerance).reshape(shape),
        iterations=iterations.reshape(shape),
    )


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
    _, inputs = Grid(receiver, channel, {"nu1": nu1}, ()).slab()
    search = maximize_nodes(
        **inputs, background_error=receiver.background_error, protocol=protocol, config=config
    )
    if search.errors:
        raise search.errors[0]
    mu = float(search.mu)
    skr = float(search.skr)
    converged = bool(search.converged)
    iterations = int(search.iterations)
    if not skr > 0.0:
        return MaximizeResult(mu, 0.0, NO_POSITIVE_KEY, converged, iterations)
    return MaximizeResult(mu, skr, None, converged, iterations)


def threshold_nodes(
    p_ap_values,
    intrinsic_error_values,
    loss_db: float,
    target_qber: float,
    receiver_template: model.ReceiverModel,
    mean_photon: float,
    config: SolverConfig = SolverConfig(),
) -> ThresholdSearch:
    """The dark-count threshold bisection on every node of a (p_ap, intrinsic_error) grid.

    Takes the arguments of ``trace_iso_qber_surface`` and returns its nodes
    as arrays, in row-major order (p_ap outer, intrinsic_error inner).
    ``bounds.Grid`` builds every node's inputs and rejections. Every
    bisection step is one pass of array arithmetic over the nodes still above
    the tolerance, with the scalar closed form's operations in its order, so
    each node follows the same arithmetic as a search of its own. The first
    node, in row-major order, that ``dark_count_threshold`` would reject (a
    rejected p_ap, then a rejected intrinsic_error, a gain outside (0, 1], or
    a target the search cap cannot reach) raises its exception.
    """
    if not 0.0 < target_qber < 0.5:
        raise ValidationError(f"target_qber must be in (0, 0.5), got {target_qber!r}")
    if mean_photon <= 0.0:
        raise ValidationError(f"mean_photon must be > 0, got {mean_photon!r}")
    grid = Grid(
        receiver_template,
        model.ChannelModel(transmission_loss_db=loss_db),
        {},
        (("p_ap", p_ap_values), ("intrinsic_error", intrinsic_error_values)),
    )
    detected = -math.expm1(-grid.base["eta"] * mean_photon)
    index, inputs = grid.slab()
    x = {name: per_node(inputs[name], grid.shape) for name in ("p_ap", "e_prime")}
    rejected = grid.rejections(index)
    e0 = receiver_template.background_error
    # a rejected node's inputs can be inf or nan
    with np.errstate(all="ignore"):
        one_p = 1.0 + x["p_ap"]
        signal = detected * one_p
        signal_error = (x["e_prime"] + e0 * x["p_ap"]) * detected
        floor_gain, floor = model.gain_and_qber(0.0, signal, signal_error, e0)
        cap_gain, ceiling = model.gain_and_qber(one_p * DARK_COUNT_CAP, signal, signal_error, e0)
        floor_error = (floor_gain > 1.0) | (floor_gain <= 0.0)
        infeasible = ~floor_error & (floor > target_qber)
        failed = floor_error | (~infeasible & ((cap_gain > 1.0) | (ceiling < target_qber)))
    failed[list(rejected)] = True
    for i in np.flatnonzero(failed)[:1].tolist():
        if i in rejected:
            raise ValidationError(rejected[i])
        # the scalar search's checks, in its order, on this node's values
        model.check_gain(float(floor_gain[i]))
        model.check_detections(float(floor_gain[i]))
        model.check_gain(float(cap_gain[i]))
        raise ValidationError(
            f"target_qber={target_qber!r} not reachable below the dark-count "
            f"search cap {DARK_COUNT_CAP!r} (QBER at cap: {float(ceiling[i]):g})"
        )

    n = grid.size
    dark_count = np.full(n, math.nan)
    achieved = np.full(n, math.nan)
    iterations = np.zeros(n, dtype=int)
    # The nodes still searching, and their constants, bracket and midpoint.
    rows = np.flatnonzero(~infeasible)
    one_p, signal, signal_error = one_p[rows], signal[rows], signal_error[rows]
    lo = np.zeros(len(rows))
    hi = np.full(len(rows), DARK_COUNT_CAP)
    mid = 0.5 * (lo + hi)
    _, qber = model.gain_and_qber(one_p * mid, signal, signal_error, e0)
    for step in range(config.max_iterations):
        done = np.abs(qber - target_qber) < config.abs_tolerance
        if np.count_nonzero(done):
            finished = rows[done]
            dark_count[finished], achieved[finished] = mid[done], qber[done]
            iterations[finished] = step
            running = ~done
            rows, one_p, signal, signal_error, lo, hi, mid, qber = (
                a[running] for a in (rows, one_p, signal, signal_error, lo, hi, mid, qber)
            )
        if not len(rows):
            break
        below = qber < target_qber
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
        _, qber = model.gain_and_qber(one_p * mid, signal, signal_error, e0)
    dark_count[rows], achieved[rows], iterations[rows] = mid, qber, config.max_iterations
    return ThresholdSearch(
        dark_count=dark_count,
        achieved=achieved,
        feasible=~infeasible,
        converged=np.abs(achieved - target_qber) < config.abs_tolerance,
        iterations=iterations,
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

    Nodes are returned in row-major order (p_ap outer, intrinsic_error
    inner): ``threshold_nodes``' arrays as one ``ContourPoint`` per node. A
    node the scalar model rejects raises its exception, and the first such
    node in row-major order is the one reported (at one node, a rejected p_ap
    before a rejected intrinsic_error).
    """
    p_values, e_values = tuple(p_ap_values), tuple(intrinsic_error_values)
    search = threshold_nodes(
        p_values, e_values, loss_db, target_qber, receiver_template, mean_photon, config
    )
    nodes = zip(
        ((p, e) for p in p_values for e in e_values),
        search.feasible.tolist(),
        search.dark_count.tolist(),
        search.achieved.tolist(),
        search.converged.tolist(),
        search.iterations.tolist(),
    )
    return [
        ContourPoint(p, e, loss_db, dark_count, achieved, True, converged, iterations)
        if feasible
        else ContourPoint(p, e, loss_db, None, None, False)
        for (p, e), feasible, dark_count, achieved, converged, iterations in nodes
    ]


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
    (point,) = trace_iso_qber_surface(
        (p_ap,), (intrinsic_error,), loss_db, target_qber, receiver_template, mean_photon,
        config,
    )
    return point
