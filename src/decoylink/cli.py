"""Command-line front end.

Subcommands map to the library's analyses: ``report`` (single operating
point), ``sweep`` (grid evaluation to CSV), ``contour`` (iso-QBER dark-count
thresholds), ``optimal-mu`` (closed-form optimal signal intensity) and
``skr-vs-afterpulse`` (preset key-rate-versus-afterpulse curves).

Exit codes: 0 success, 2 configuration error, 3 model-domain error, 4 I/O
error. Every error path prints a single ``error: <kind>: <message>`` line.

``run`` is the program entry (``python -m decoylink`` and the ``decoylink``
script): ``main`` on the command line, then ``gc.freeze()``, then exit with
``main``'s code. The freeze lets interpreter shutdown skip the cyclic
collector's passes over every object alive then, most of them made by the
imports; refcounting, ``atexit`` handlers and the stdio flush run as before.
``main`` called in process changes no collector state.
"""
from __future__ import annotations

# Import order sets the peak RSS. With no bytecode cache, a module compiled
# after numpy has loaded raises ru_maxrss by its compile transient (about
# 1.9 MB for bounds.py, 1.25 MB for optimize.py, 1.1 MB for this file);
# compiled before numpy, it costs nothing net. So the package's modules come
# first, numpy-free ones, then sweep, which imports optimize, which imports
# bounds, each before numpy: every module compiles before bounds' numpy
# import. The standard-library imports come after them: placed first, they
# read about 0.17 MB higher on every command.
from . import config as config_mod
from . import model
from .errors import DecoyLinkError, ValidationError
from .sweep import NU1_BY_LOSS_DB, SweepBlock, grid_blocks, spec_grid
from .bounds import Grid, SinglePhotonEstimate, evaluate_link
from .optimize import solve_optimal_mu, threshold_nodes

import argparse
import csv
import gc
import io
import sys
from contextlib import contextmanager
from itertools import chain

import numpy as np

PRESET_INTRINSIC_ERRORS = (0.005, 0.02)

# Most grid nodes whose CSV cells are held at once: each slab the sweep
# engine hands out is formatted and written in chunks of at most this many
# nodes, so memory does not grow with the slab.
CHUNK_NODES = 512


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


@contextmanager
def _open_output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _load_scenario(args) -> config_mod.Scenario:
    if args.config is None:
        return config_mod.parse_scenario({})
    return config_mod.load_scenario(args.config)


def _report_rows(scenario: config_mod.Scenario) -> list[tuple[str, object]]:
    receiver = scenario.receiver
    metrics = evaluate_link(receiver, scenario.channel, scenario.intensities, scenario.protocol)
    p_ap = model.aggregate_afterpulse(receiver)
    e_prime, e0 = receiver.intrinsic_error, receiver.background_error
    estimate = metrics.estimate or SinglePhotonEstimate(None, None, None)
    return [
        ("p_ap", p_ap),
        ("y0", metrics.y0_measured),
        ("q_mu", metrics.q_mu),
        ("e_mu", metrics.e_mu),
        ("q_nu1", metrics.q_nu1),
        ("e_nu1", metrics.e_nu1),
        ("y1_lower", estimate.y1_lower),
        ("e1_upper", estimate.e1_upper),
        ("q1_lower", estimate.q1_lower),
        ("e_detector", model.effective_baseline_error(e_prime, e0, p_ap)),
        ("visibility", model.visibility(e_prime, e0, p_ap)),
        ("skr_raw", metrics.skr_raw),
        ("skr_lower", metrics.skr_lower),
        ("skr_approx", metrics.skr_approx),
        ("status", "infeasible" if metrics.reason else "ok"),
        ("reason", metrics.reason or ""),
    ]


def cmd_report(args) -> int:
    scenario = _load_scenario(args)
    rows = _report_rows(scenario)
    if args.format == "csv":
        _write_csv(args.output, [n for n, _ in rows], [[[_csv_field(_fmt(v))] for _, v in rows]])
        return 0
    with _open_output(args.output) as fh:
        for name, value in rows:
            fh.write(f"{name:<22}{_fmt(value)}\n")
    return 0


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    if scenario.sweep is None:
        raise ValidationError("sweep: section required for the sweep command")
    spec = scenario.sweep
    grid = spec_grid(spec)
    axis_cells = [(ax.name, k, _float_cells(grid.values[k])) for k, ax in enumerate(spec.axes)]
    blocks = grid_blocks(grid, spec.protocol, spec.outputs, spec.mu_policy)
    _write_blocks(args.output, axis_cells, blocks)
    return 0


def _float_cells(values, missing: np.ndarray | None = None) -> np.ndarray:
    """``_fmt`` of each value, '' where ``missing``, as an array of their broadcast shape.

    All values are formatted in one '%.10g' batch, which prints each float
    (-0.0, inf, nan and subnormals included) as ``format(v, '.10g')`` does.
    """
    values = np.asarray(values, dtype=float)
    flat = values.ravel().tolist()
    texts = ("%.10g," * len(flat) % tuple(flat)).split(",")[:-1]
    cells = np.array(texts, dtype=object).reshape(values.shape)
    if missing is not None and missing.any():
        cells = np.where(missing, "", cells)
    return cells


def _csv_field(text: str | None) -> str:
    """``text`` as ``csv.writer`` writes it among other fields: quoted only if it must be."""
    if not text:
        return ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text,))
    return buf.getvalue()[:-1]


def _rows(columns: list[list[str]]) -> str:
    """CSV rows of the given columns of cells, one row per position."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _write_csv(path: str | None, header, blocks) -> None:
    """Write the header line, then the rows of each block of CSV columns in ``blocks``."""
    with _open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        # writelines holds no block's cells while the next block is built
        fh.writelines(map(_rows, blocks))


def _write_blocks(path: str | None, axis_cells: list, blocks) -> None:
    """Write the ``blocks`` as CSV, a chunk of at most CHUNK_NODES nodes at a time.

    Each (name, axis position, cells) triple of ``axis_cells`` is a leading
    column: ``cells`` holds one CSV cell per value of that axis. The header
    is read from the first chunk, which is computed before the output is
    opened: the axis names, the names of its ``outputs``, status, and reason
    if it has reasons.
    """
    chunks = (chunk for block in blocks for chunk in block.chunks(CHUNK_NODES))
    first = next(chunks)
    header = [name for name, _, _ in (*axis_cells, *first.outputs)] + ["status"]
    if first.reasons is not None:
        header.append("reason")
    columns = (_block_columns(chunk, axis_cells) for chunk in chain((first,), chunks))
    _write_csv(path, header, columns)


def _block_columns(block: SweepBlock, axis_cells: list) -> list:
    """CSV columns of the block's nodes, with ``axis_cells`` as ``_write_blocks`` takes them.

    Each node gets the cell of its axis value. Each output is formatted at
    the shape it was computed at, once per distinct value of the axes it
    depends on, and then spread over the block's nodes.
    """
    columns = [block.nodes(cells[block.axis_index[k]]).tolist() for _, k, cells in axis_cells]
    columns.extend(
        block.nodes(_float_cells(values, missing)).tolist() for _, values, missing in block.outputs
    )
    # The statuses are fixed words that need no quoting.
    columns.append(block.nodes(block.statuses).tolist())
    if block.reasons is not None:
        reasons = block.nodes(block.reasons).tolist()
        quoted = {reason: _csv_field(reason) for reason in set(reasons)}
        columns.append([quoted[reason] for reason in reasons])
    return columns


def cmd_contour(args) -> int:
    scenario = _load_scenario(args)
    if scenario.sweep is None:
        raise ValidationError("sweep: section required for the contour command")
    axes = {ax.name: ax for ax in scenario.sweep.axes}
    if set(axes) != {"p_ap", "intrinsic_error"}:
        raise ValidationError(
            "sweep.axes: contour needs exactly the axes p_ap and intrinsic_error"
        )
    p_values, e_values = axes["p_ap"].values(), axes["intrinsic_error"].values()
    loss_db = scenario.channel.loss_db
    block = threshold_nodes(
        p_values, e_values, loss_db, args.target_qber, scenario.receiver,
        scenario.intensities.signal_mu,
    )
    # the one loss is a column on the p_ap axis, as the preset's nu1 is on its loss axis
    axis_cells = [
        ("p_ap", 0, _float_cells(p_values)),
        ("intrinsic_error", 1, _float_cells(e_values)),
        ("loss_db", 0, _float_cells(np.full(len(p_values), loss_db))),
    ]
    _write_blocks(args.output, axis_cells, (block,))
    return 0


def cmd_optimal_mu(args) -> int:
    scenario = _load_scenario(args)
    receiver = scenario.receiver
    p_ap = model.aggregate_afterpulse(receiver)
    e_det = model.effective_baseline_error(
        receiver.intrinsic_error, receiver.background_error, p_ap
    )
    result = solve_optimal_mu(e_det, scenario.protocol)
    with _open_output(args.output) as fh:
        fh.write(f"{'e_detector':<22}{_fmt(e_det)}\n")
        fh.write(f"{'mu':<22}{_fmt(result.mu)}\n")
        fh.write(f"{'residual':<22}{_fmt(result.residual)}\n")
        fh.write(f"{'boundary':<22}{'true' if result.boundary else 'false'}\n")
    return 0


def cmd_skr_vs_afterpulse(args) -> int:
    scenario = _load_scenario(args)
    if not 0.0 < args.pap_min < args.pap_max:
        raise ValidationError(
            f"afterpulse range must satisfy 0 < min < max, got "
            f"{args.pap_min!r}..{args.pap_max!r}"
        )
    axis = model.Axis("p_ap", args.pap_min, args.pap_max, args.points, "log")
    # the grid-size cap applies to each curve, as to a one-axis sweep
    model.check_grid_size(args.points)
    losses = sorted(NU1_BY_LOSS_DB)
    nu1 = np.array([NU1_BY_LOSS_DB[loss] for loss in losses])
    # All six curves are one grid, so each block is one lockstep optimizer run.
    axes = (
        ("loss_db", losses, {"nu1": nu1}),
        ("intrinsic_error", PRESET_INTRINSIC_ERRORS),
        ("p_ap", axis.values()),
    )
    # mu is optimized at every node; this base value only feeds the nu1 < mu check.
    grid = Grid(scenario.receiver, scenario.channel, {"mu": 1.0}, axes)
    axis_cells = [(name, k, _float_cells(grid.values[k])) for k, (name, *_) in enumerate(axes)]
    axis_cells.insert(1, ("weak_decoy_nu1", 0, _float_cells(nu1)))
    blocks = grid_blocks(grid, scenario.protocol, ("skr_lower",), "optimize-per-point")
    _write_blocks(args.output, axis_cells, blocks)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario configuration file (YAML)")
    parser.add_argument("--output", help="output path ('-' or omitted: stdout)")
    parser.add_argument(
        "--seedless",
        action="store_true",
        help="assert deterministic operation (the model uses no randomness; "
        "accepted for pipeline compatibility)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoylink",
        description="Decoy-state QKD link performance model for afterpulsing "
        "SPAD receiver arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="evaluate one operating point")
    _add_common(p)
    p.add_argument(
        "--format", choices=("pretty", "csv"), default="pretty",
        help="pretty labels or a machine-readable CSV row",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="evaluate the configured parameter grid")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "contour", help="iso-QBER dark-count thresholds over (p_ap, intrinsic_error)"
    )
    _add_common(p)
    p.add_argument(
        "--target-qber", type=float, default=0.09, help="QBER level to hold (default 0.09)"
    )
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("optimal-mu", help="solve the optimal signal intensity condition")
    _add_common(p)
    p.set_defaults(func=cmd_optimal_mu)

    p = sub.add_parser(
        "skr-vs-afterpulse",
        help="preset: key rate versus afterpulse probability at 0/5/21 dB",
    )
    _add_common(p)
    p.add_argument("--points", type=int, default=60, help="points per curve (default 60)")
    p.add_argument("--pap-min", type=float, default=1e-4, help="lowest afterpulse probability")
    p.add_argument("--pap-max", type=float, default=0.2, help="highest afterpulse probability")
    p.set_defaults(func=cmd_skr_vs_afterpulse)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except DecoyLinkError as exc:
        print(f"error: model-domain: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    """Program entry: exit with ``main``'s code, with the collector frozen for shutdown."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
