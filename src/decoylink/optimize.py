"""Numerical solvers: optimal signal intensity and iso-QBER threshold tracing."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

# The package before numpy: see the note in cli.py.
from . import model
from .bounds import (
    Grid, LinkTable, binary_entropy, boxes, check_decoy_pair, cut, mu_core, mu_stage,
    node_stage, per_node, raised, with_none,
)
from .errors import DecoyLinkError, NoSolutionError, ValidationError

import numpy as np

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
# Every solver stops within ABS_TOLERANCE (its residual, or its bracket's
# width) or after MAX_ITERATIONS steps; both are read at each call.
ABS_TOLERANCE = 1e-10
MAX_ITERATIONS = 200


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

    ``table`` holds every metric at the optimal intensity ``table.mu``, which
    has the nodes' shape, the broadcast shape of the inputs, as do
    ``converged`` and ``iterations``. ``errors`` maps the nodes, by row-major
    position, whose bracket or decoy pair is rejected, as
    ``maximize_skr_over_mu`` would raise, to the exception; their other
    entries are meaningless.
    """

    table: LinkTable
    errors: dict[int, DecoyLinkError]
    converged: np.ndarray
    iterations: np.ndarray


@dataclass(frozen=True)
class ThresholdSearch:
    """Outcome of the lockstep dark-count bisection at a 1-D array of nodes.

    ``dark_count`` and ``achieved`` are NaN, and ``iterations`` 0, at infeasible nodes.
    """

    dark_count: np.ndarray
    achieved: np.ndarray
    feasible: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


class ContourPoint(NamedTuple):
    """One node of an iso-QBER surface: the dark-count level meeting the target.

    An immutable NamedTuple. Infeasible nodes (target unreachable even without
    dark counts) carry None in ``dark_count_prob`` and ``achieved_qber``,
    ``converged`` True and 0 ``iterations``. Elsewhere ``converged`` is False
    when the bisection ran out of iterations before ``achieved_qber`` met the
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


def solve_optimal_mu(e_detector: float, protocol: model.ProtocolParams) -> OptimalMu:
    """Solve (1 - mu) e^-mu = f H2(e) / (1 - H2(e)) for the signal intensity.

    The left side falls strictly from 1 to 0 on (0, 1), so any right side in
    (0, 1) has exactly one root there, found by bisection of (0, 1) until
    the residual is below ABS_TOLERANCE or MAX_ITERATIONS steps have run.
    Raises NoSolutionError when the right side reaches 1 (error rate too
    high for a positive-rate optimum below saturation).
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
    lo, hi = 0.0, 1.0
    mid = 0.5 * (lo + hi)
    residual = _mu_condition(mid) - rhs
    iterations = 0
    for _ in range(MAX_ITERATIONS):
        if abs(residual) < ABS_TOLERANCE:
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
        converged=abs(residual) < ABS_TOLERANCE,
        iterations=iterations,
    )


def _check_mu_bracket(nu1: float, lo: float) -> None:
    if not nu1 < lo:
        raise ValidationError(
            f"bracket lower bound {lo!r} must exceed the weak-decoy intensity {nu1!r}"
        )
    if not lo < MU_BRACKET_MAX:
        raise ValidationError(
            f"empty signal-intensity bracket ({lo!r}, {MU_BRACKET_MAX!r}); the weak-decoy "
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
) -> MuSearch:
    """``maximize_skr_over_mu`` at every node of arrays that broadcast together, in lockstep.

    The arguments, and so the nodes, are those of ``link_table`` without the
    signal intensity. ``bounds.node_stage`` computes the terms that do not
    depend on mu once, at the arguments' shapes; each probe is one
    ``bounds.mu_core`` call of at most _SEED_SLICE_ROWS points, all under one
    ``np.errstate``. The 64-point seed grid runs over the ``bounds.boxes`` of
    at most _SEED_SLICE_ROWS // 64 nodes, with the terms at their own shapes
    and a trailing axis of 64 points, so that a term of mu alone is computed
    once per distinct seed point. The golden-section phase holds one entry
    per node still searching: its first probe takes both inner points of
    every node, each later step one. The result's table, at the optimal
    intensity ``table.mu``, is one ``bounds.mu_stage`` call. Each node
    follows the same arithmetic as a search of its own, so its result does
    not depend on the other nodes, on the runs or on the shapes.

    A node's errors are decided before the golden-section phase: its bracket
    (nu1 + MU_BRACKET_MARGIN, MU_BRACKET_MAX) first, then its decoy pair at
    the first seed point, mu = nu1 + MU_BRACKET_MARGIN. For inputs with
    p_ap > -1 and p_dc, eta >= 0, as ``bounds.Grid`` gives, that point
    decides it: every later point has a larger mu, so ``mu_core``, which
    does not test the decoy pair, runs past it only where 0 < nu1 < mu; and
    a gain outside (0, 1] there stays outside, since the signal gain never
    falls as mu grows and the weak-decoy gain is at most the signal gain at
    the first point.
    """
    terms, outputs = node_stage(p_ap, e_prime, p_dc, eta, nu1, background_error)
    shape = np.broadcast_shapes(*(v.shape for v in (*terms.values(), *outputs.values())))
    n = math.prod(shape)
    # The bracket's bottom, at nu1's shape; its top is MU_BRACKET_MAX
    bottom = terms["nu1"] + MU_BRACKET_MARGIN
    nu1, lo = per_node(terms["nu1"], shape), per_node(bottom, shape)
    failed = ~(nu1 < lo) | ~(lo < MU_BRACKET_MAX)
    errors: dict[int, DecoyLinkError] = {
        int(i): raised(_check_mu_bracket, nu1[i], lo[i]) for i in np.flatnonzero(failed)
    }

    def probe(mu: np.ndarray, at: dict[str, np.ndarray]) -> np.ndarray:
        """The objective at 1-D points ``mu`` on the terms ``at``, in runs of _SEED_SLICE_ROWS."""
        if len(mu) <= _SEED_SLICE_ROWS:
            return mu_core(mu, background_error, protocol, **at)[0]
        runs = [slice(i, i + _SEED_SLICE_ROWS) for i in range(0, len(mu), _SEED_SLICE_ROWS)]
        return np.concatenate([probe(mu[r], {name: v[r] for name, v in at.items()}) for r in runs])

    points = _GRID_SEED_POINTS

    def seed_points(lo, k):
        """Points ``k`` of the seed grids of the brackets (``lo``, MU_BRACKET_MAX), broadcast."""
        return lo + (MU_BRACKET_MAX - lo) * k / (points - 1)

    # A rejected bracket can overflow from here on; its node's result is never used.
    with np.errstate(all="ignore"):
        # Each box's grid is built in its turn, so no (nodes, 64) array is held.
        best, first = np.empty(n, dtype=int), np.empty(n)
        start = 0
        for box in boxes(shape, max(1, _SEED_SLICE_ROWS // points)):
            box_shape = tuple(map(len, box))
            size = math.prod(box_shape)
            mu = seed_points(cut(bottom, box)[..., None], np.arange(points, dtype=float))
            at = {name: cut(v, box)[..., None] for name, v in terms.items()}
            grid = mu_core(mu, background_error, protocol, **at)[0]
            grid = per_node(grid, box_shape + (points,)).reshape(size, points)
            best[start:start + size], first[start:start + size] = grid.argmax(axis=1), grid[:, 0]
            start += size
        # Seed point 0 is lo itself at every node whose bracket holds; a gain
        # outside (0, 1] there (an objective of -inf) is reported, not the decoy pair.
        decoy_error = ~failed & ~((0.0 < nu1) & (nu1 < lo)) & (first > -np.inf)
        for i in np.flatnonzero(decoy_error).tolist():
            errors[i] = raised(check_decoy_pair, lo[i], nu1[i])
        failed |= decoy_error
        low = seed_points(lo, np.maximum(best - 1, 0))
        high = seed_points(lo, np.minimum(best + 1, points - 1))

        # The golden-section phase holds only the nodes still searching, as
        # threshold_nodes does. A node whose bracket is within the tolerance
        # has its bracket and step count written back and is dropped.
        node = np.flatnonzero(~failed)
        iterations = np.zeros(n, dtype=int)
        if len(node):
            live = {name: per_node(values, shape)[node] for name, values in terms.items()}
            lo, hi = low[node], high[node]
            width = hi - lo
            c, d = hi - _INVPHI * width, lo + _INVPHI * width
            both = {name: np.concatenate((v, v)) for name, v in live.items()}
            fc, fd = probe(np.concatenate((c, d)), both).reshape(2, -1)
            for step in range(MAX_ITERATIONS):
                done = width <= ABS_TOLERANCE
                if np.count_nonzero(done):
                    ended, keep = node[done], ~done
                    low[ended], high[ended], iterations[ended] = lo[done], hi[done], step
                    node, lo, hi, width, c, d, fc, fd = (
                        a[keep] for a in (node, lo, hi, width, c, d, fc, fd)
                    )
                    if not len(node):
                        break
                    live = {name: v[keep] for name, v in live.items()}
                up = fc > fd
                lo, hi = np.where(up, lo, c), np.where(up, d, hi)
                width = hi - lo
                inner = _INVPHI * width
                c, d = np.where(up, hi - inner, d), np.where(up, c, lo + inner)
                f = probe(np.where(up, c, d), live)
                fc, fd = np.where(up, f, fd), np.where(up, fc, f)
            low[node], high[node], iterations[node] = lo, hi, MAX_ITERATIONS
        mu, converged = (0.5 * (low + high)).reshape(shape), high - low <= ABS_TOLERANCE
    table = mu_stage(mu, background_error, protocol, terms, outputs)
    return MuSearch(table, errors, converged.reshape(shape), iterations.reshape(shape))


def maximize_skr_over_mu(
    receiver: model.ReceiverModel,
    channel: model.ChannelModel,
    nu1: float,
    protocol: model.ProtocolParams,
) -> MaximizeResult:
    """Maximize the key-rate lower bound over the signal intensity.

    Seeds a 64-point grid over the bracket, then refines the best interval by
    golden-section search. The rate is unimodal in practice; the grid guards
    against stray local maxima. When no intensity yields a positive key the
    result carries skr = 0 and a reason, never an exception.
    """
    grid = Grid(receiver, channel, {"nu1": nu1}, ())
    _, inputs = grid.slab()
    search = maximize_nodes(**inputs, background_error=grid.background_error, protocol=protocol)
    if search.errors:
        raise search.errors[0]
    table = search.table
    mu, skr = float(table.mu), float(table.values["skr_lower"])
    converged, iterations = bool(search.converged), int(search.iterations)
    # a gain outside (0, 1] at the optimum is no key
    if table.gain_error or not skr > 0.0:
        return MaximizeResult(mu, 0.0, NO_POSITIVE_KEY, converged, iterations)
    return MaximizeResult(mu, skr, None, converged, iterations)


def threshold_nodes(
    p_ap_values,
    intrinsic_error_values,
    loss_db: float,
    target_qber: float,
    receiver_template: model.ReceiverModel,
    mean_photon: float,
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
    if not mean_photon > 0.0:
        raise ValidationError(f"mean_photon must be > 0, got {mean_photon!r}")
    grid = Grid(
        receiver_template,
        model.ChannelModel(transmission_loss_db=loss_db),
        {},
        (("p_ap", p_ap_values), ("intrinsic_error", intrinsic_error_values)),
    )
    index, inputs = grid.slab()
    detected = -math.expm1(-inputs["eta"].item() * mean_photon)
    x = {name: per_node(inputs[name], grid.shape) for name in ("p_ap", "e_prime")}
    rejected = grid.rejections(index)
    e0 = grid.background_error
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
    for step in range(MAX_ITERATIONS):
        done = np.abs(qber - target_qber) < ABS_TOLERANCE
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
    dark_count[rows], achieved[rows], iterations[rows] = mid, qber, MAX_ITERATIONS
    return ThresholdSearch(
        dark_count=dark_count,
        achieved=achieved,
        feasible=~infeasible,
        converged=np.abs(achieved - target_qber) < ABS_TOLERANCE,
        iterations=iterations,
    )


def trace_iso_qber_surface(
    p_ap_values,
    intrinsic_error_values,
    loss_db: float,
    target_qber: float,
    receiver_template: model.ReceiverModel,
    mean_photon: float,
) -> list[ContourPoint]:
    """Dark-count threshold on every node of a (p_ap, intrinsic_error) grid.

    Nodes are returned in row-major order (p_ap outer, intrinsic_error
    inner), built from ``threshold_nodes``' arrays as one column per
    ``ContourPoint`` field. A node the scalar model rejects raises its
    exception, and the first such node in row-major order is the one
    reported (at one node, a rejected p_ap before a rejected intrinsic_error).
    """
    p_values, e_values = tuple(p_ap_values), tuple(intrinsic_error_values)
    search = threshold_nodes(
        p_values, e_values, loss_db, target_qber, receiver_template, mean_photon
    )
    infeasible = ~search.feasible
    return list(map(ContourPoint._make, zip(
        [p for p in p_values for _ in e_values],
        e_values * len(p_values),
        [loss_db] * len(infeasible),
        with_none(search.dark_count, infeasible),
        with_none(search.achieved, infeasible),
        search.feasible.tolist(),
        (search.converged | infeasible).tolist(),
        search.iterations.tolist(),
    )))


def dark_count_threshold(
    p_ap: float,
    intrinsic_error: float,
    loss_db: float,
    target_qber: float,
    receiver_template: model.ReceiverModel,
    mean_photon: float,
) -> ContourPoint:
    """Largest dark-count probability that keeps the total QBER at the target.

    The QBER rises monotonically with the dark-count level toward the
    background error rate, so the threshold is found by bisection on
    [0, DARK_COUNT_CAP]. When even zero dark counts exceed the target the
    node is reported infeasible (a value, not an error). A target so lax
    that the cap cannot reach it is a parameter error.
    """
    (point,) = trace_iso_qber_surface(
        (p_ap,), (intrinsic_error,), loss_db, target_qber, receiver_template, mean_photon
    )
    return point
