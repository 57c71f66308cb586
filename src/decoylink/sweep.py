"""Scenario engine: evaluate link metrics over parameter grids."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import model
from .bounds import (
    AXES,
    AXIS_NAMES,
    ESTIMATION_INFEASIBLE,
    LINK_METRICS,
    METRIC_NAMES,
    SCALAR_METRICS,
    Grid,
    Slab,
    boxes,
    cut,
    link_table,
    per_node,
    raised,
    with_none,
)
from .errors import ValidationError
from .optimize import NO_POSITIVE_KEY, maximize_nodes

MAX_GRID_POINTS = 1_000_000

# Most grid nodes per slab: per link_table call, or per lockstep optimizer
# run, which takes the slab as link_table does (its probes run only
# bounds.mu_core, on at most optimize._SEED_SLICE_ROWS points each; its
# final table is one mu_stage call). A slab holds float64 arrays, not CSV
# cells, which the CLI formats in smaller chunks (cli.CHUNK_NODES); so slabs
# can be large enough for the per-call overhead to stop mattering: every
# 81 x 81 grid is one slab.
SLAB_NODES = 8192

# Optimized weak-decoy intensities are only tabulated for these losses; any
# other loss requires an explicit weak_decoy_nu1 (no interpolation).
NU1_BY_LOSS_DB = {0.0: 0.038, 5.0: 0.05, 21.0: 0.12}

MU_POLICIES = ("fixed", "optimize-per-point")

# A node's status by 2 * (model-domain error) + (infeasible), or 3: out of search steps.
_STATUSES = np.array(["ok", "infeasible", "model-domain-error", "not-converged"], dtype=object)


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
        check_grid_size(math.prod(ax.count for ax in self.axes))

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)


class ResultRecord(NamedTuple):
    """One grid node, an immutable NamedTuple: axis values, requested metrics, and a status."""

    axis_values: tuple[float, ...]
    values: tuple[float | None, ...]
    mu_opt: float | None
    status: str
    reason: str | None = None


@dataclass(frozen=True)
class SweepBlock:
    """A box of grid nodes (a slab of ``grid_blocks``, or a chunk of one) as columns.

    ``axis_index[k]`` holds the box's value indices on axis k, shaped to
    vary along axis k only; ``axis_values`` holds every value of each axis,
    the same arrays in every block. ``outputs`` holds, per requested metric,
    its float64 values and the mask of the nodes where it has no value, each
    at the shape it was computed at, which broadcasts over the box;
    ``mu_opt`` is the same pair under optimize-per-point and None
    otherwise. Values under a mask are meaningless. ``statuses`` and
    ``reasons`` are object arrays of the box's shape. ``nodes`` gives any of
    these arrays one entry per node, in row-major order.
    """

    axis_values: tuple[np.ndarray, ...]
    axis_index: tuple[np.ndarray, ...]
    outputs: tuple[tuple[np.ndarray, np.ndarray], ...]
    mu_opt: tuple[np.ndarray, np.ndarray] | None
    statuses: np.ndarray
    reasons: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        """The box's length along each axis."""
        return tuple(i.size for i in self.axis_index)

    def nodes(self, values) -> np.ndarray:
        """``values``, an array that broadcasts over the box, as one entry per node."""
        return per_node(values, self.shape)

    def chunks(self, max_nodes: int) -> Iterator[SweepBlock]:
        """The block as the ``boxes`` of at most ``max_nodes`` nodes, each a SweepBlock.

        A chunk's arrays are views of the block's.
        """
        for box in boxes(self.shape, max_nodes):
            yield SweepBlock(
                axis_values=self.axis_values,
                axis_index=tuple(cut(i, box) for i in self.axis_index),
                outputs=tuple((cut(v, box), cut(m, box)) for v, m in self.outputs),
                mu_opt=None if self.mu_opt is None else tuple(cut(a, box) for a in self.mu_opt),
                statuses=cut(self.statuses, box),
                reasons=cut(self.reasons, box),
            )

    def records(self) -> list[ResultRecord]:
        """The block's nodes as ResultRecords, built by columns, with None for masked values."""
        n = self.statuses.size
        axis_values = (
            zip(*(self.nodes(v[i]).tolist() for v, i in zip(self.axis_values, self.axis_index)))
            if self.axis_values else [()] * n
        )
        values = zip(*(with_none(self.nodes(v), self.nodes(m)) for v, m in self.outputs))
        mu_opt = [None] * n if self.mu_opt is None else with_none(*map(self.nodes, self.mu_opt))
        return list(map(ResultRecord._make, zip(
            axis_values, values, mu_opt, self.nodes(self.statuses).tolist(),
            self.nodes(self.reasons).tolist(),
        )))


def _block(
    grid: Grid, protocol: model.ProtocolParams, e0: float, outputs: tuple[str, ...],
    mu_policy: str, slab: Slab,
) -> SweepBlock:
    index, x = slab
    shape = tuple(i.size for i in index)
    n = math.prod(shape)
    link_model = mu_policy == "optimize-per-point" or any(name in LINK_METRICS for name in outputs)

    def at(values, i: int):
        """The entry of node ``i`` of ``values``, an array that broadcasts over the slab."""
        return np.broadcast_to(values, shape).flat[i]

    # The ledger: which nodes failed, and each one's model-domain-error
    # message. Checks run in the order a node meets them: scalar outputs in
    # output order, the axis overrides, the mu optimizer, then the link
    # model; the first failure is kept.
    failed = np.zeros(n, dtype=bool)
    reasons = np.full(n, None, dtype=object)

    def fail(found: Iterable[int], message: Callable[[int], object]) -> None:
        """Fail each node position ``i`` of ``found`` not yet failed, as ``str(message(i))``."""
        for i in found:
            if not failed[i]:
                failed[i] = True
                reasons[i] = str(message(i))

    # Of the scalar metrics only baseline_error_change can fail on axis values
    # (e' = 0 or subnormal); the outputs listed after it are then left empty,
    # except a name also listed before it, whose value came before the failure.
    changes = "baseline_error_change" in outputs
    first_change = outputs.index("baseline_error_change") if changes else len(outputs)
    scalar_failed = changes & (x["e_prime"] < sys.float_info.min)
    fail(np.flatnonzero(per_node(scalar_failed, shape)), lambda i: raised(
        model.baseline_error_change, at(x["e_prime"], i), e0, at(x["p_ap"], i)
    ))
    search = None
    if link_model:
        rejected = grid.rejections(index)
        fail(rejected, rejected.__getitem__)
        fail(np.flatnonzero(per_node(~(x["nu1"] < x["mu"]), shape)), lambda i: raised(
            model.IntensitySet, at(x["mu"], i), at(x["nu1"], i)
        ))
    if mu_policy == "optimize-per-point":
        search = maximize_nodes(
            x["p_ap"], x["e_prime"], x["p_dc"], x["eta"], x["nu1"], e0, protocol
        )
        fail(search.errors, search.errors.__getitem__)
        # A node the link model alone rejects keeps its mu_opt.
        mu_missing = failed.reshape(shape).copy()
        table = search.table
    else:
        table = link_table(**x, background_error=e0, protocol=protocol)
    if link_model:
        fail(np.flatnonzero(per_node(table.domain_error, shape)), table.error)
    infeasible = link_model & per_node(table.infeasible, shape) & ~failed

    columns = []
    for j, name in enumerate(outputs):
        if name in SCALAR_METRICS:
            missing = scalar_failed & (j >= first_change) & (name not in outputs[:first_change])
        else:
            missing = failed.reshape(shape) | table.missing(name)
        columns.append((table.values[name], missing))

    # A reason other than the ledger's: estimation_infeasible, else
    # no_positive_key where the optimizer found no key (a node whose gain
    # fails is in the ledger).
    reasons[infeasible] = ESTIMATION_INFEASIBLE
    status = 2 * failed + infeasible
    if search is not None:
        no_key = ~(per_node(table.values["skr_lower"], shape) > 0.0)
        reasons[no_key & ~failed & ~infeasible] = NO_POSITIVE_KEY
        # a search that ran out of steps outranks ok and infeasible; its reason stays
        status[~failed & ~per_node(search.converged, shape)] = 3
    return SweepBlock(
        axis_values=grid.values,
        axis_index=index,
        outputs=tuple(columns),
        mu_opt=None if search is None else (table.mu, mu_missing),
        statuses=_STATUSES[status].reshape(shape),
        reasons=reasons.reshape(shape),
    )


def grid_blocks(
    grid: Grid, protocol: model.ProtocolParams, background_error: float,
    outputs: tuple[str, ...], mu_policy: str,
) -> Iterator[SweepBlock]:
    """The nodes of ``grid`` as columns of the ``outputs``, one slab at a time.

    The slabs are the ``boxes`` of at most SLAB_NODES nodes, as
    ``Grid.slab`` gives them. Each is one ``link_table`` call, or under
    optimize-per-point one lockstep optimizer run; both take the slab's
    inputs at their own shapes. The grid must give every node both
    intensities.
    """
    for box in boxes(grid.shape, SLAB_NODES):
        yield _block(grid, protocol, background_error, outputs, mu_policy, grid.slab(box))


def iter_blocks(spec: SweepSpec) -> Iterator[SweepBlock]:
    """The grid nodes of ``run_sweep`` as columns: ``grid_blocks`` of the spec's grid."""
    intensities = {"mu": spec.intensities.signal_mu, "nu1": spec.intensities.weak_decoy_nu1}
    axes = ((ax.name, ax.values()) for ax in spec.axes)
    grid = Grid(spec.receiver, spec.channel, intensities, axes)
    e0 = spec.receiver.background_error
    return grid_blocks(grid, spec.protocol, e0, spec.outputs, spec.mu_policy)


def run_sweep(spec: SweepSpec) -> list[ResultRecord]:
    """Evaluate every grid node, in lexicographic grid order.

    Nodes are evaluated with numpy, a slab of at most SLAB_NODES nodes per
    ``link_table`` call, or per lockstep optimizer run under
    optimize-per-point (whose probes run in calls of bounded size; see
    ``maximize_nodes``). Per-node failures are recorded in the node's status
    and never abort the sweep.
    """
    return [record for block in iter_blocks(spec) for record in block.records()]
