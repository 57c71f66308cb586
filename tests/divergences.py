"""The CLI outputs that differ from the seed code's on purpose, and the check each must pass.

``benchmarks/reference/decoylink`` is the seed code, loaded here as
``seed`` under the package name ``decoylink_seed``. The differential tests
of ``test_seed_diff.py`` run the CLI of both trees on the same argv and
``compare`` the outcomes. They must be equal, except where a row of
``ROWS`` applies to the argv and the seed code exits 0: there the row's
check judges this tree's stdout against the seed code's, and everything
else (exit code, stderr, warnings, any ``--output`` file) must still be
equal. Each row names the CHANGES.md entry that made its change, and no
row accepts a value without an oracle or a property of the seed's own
full-precision result behind it.
"""
from __future__ import annotations

import csv
import importlib
import importlib.util
import io
import itertools
import math
import sys
from argparse import Namespace
from dataclasses import dataclass
from decimal import Context, Decimal
from pathlib import Path
from typing import Callable

import mpmath

from decoylink.optimize import ABS_TOLERANCE

SEED_PACKAGE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference" / "decoylink"


def _load_seed_package():
    spec = importlib.util.spec_from_file_location(
        "decoylink_seed", SEED_PACKAGE / "__init__.py",
        submodule_search_locations=[str(SEED_PACKAGE)],
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


seed = _load_seed_package()
seed_cli = importlib.import_module("decoylink_seed.cli")


@dataclass(frozen=True)
class Divergence:
    """One intended change of the CLI's stdout.

    ``applies(argv)`` tells whether the change can show in a run of
    ``argv``; ``check(ours, theirs, args)`` asserts that this tree's stdout
    ``ours`` is right, given the seed code's stdout ``theirs`` and ``args``,
    the run's arguments as the seed CLI parses them (``args.config`` is the
    scenario path, or None).
    """

    name: str
    change: str
    applies: Callable[[list[str]], bool]
    check: Callable[[str, str, Namespace], None]


def total_qber(p_ap, e_prime, e0, eta, mean_photon, dark_count):
    """[e0 Y0 + (e' + e0 p_ap) d] / [Y0 + (1 + p_ap) d], Y0 = (1 + p_ap) p_dc and
    d = 1 - exp(-eta mu), at 50 digits from the values given (anything mpmath reads)."""
    with mpmath.workdps(50):
        p, e, e0, eta, mu, p_dc = map(mpmath.mpf, (p_ap, e_prime, e0, eta, mean_photon, dark_count))
        detected = -mpmath.expm1(-eta * mu)
        background = (1 + p) * p_dc
        return (e0 * background + (e + e0 * p) * detected) / (background + (1 + p) * detected)


def qber_slack(target: float) -> float:
    """How far ABS_TOLERANCE may be overrun by the float QBER's rounding: a few ulps."""
    return 8 * math.ulp(target)


def _check_contour(ours: str, theirs: str, args: Namespace) -> None:
    """Every row as the seed code prints it, except at the nodes whose seed bisection
    ended more than ABS_TOLERANCE from the target: its 200 steps cannot reach a
    threshold below 0.1/2^200. There the first three cells are the seed's and:

    - at ``ok``, the 50-digit QBER over the interval that rounds to the printed
      threshold meets the target within ABS_TOLERANCE (plus ``qber_slack``), and
      the printed QBER is one that a QBER within ABS_TOLERANCE rounds to;
    - ``not-converged`` is printed only where the node's signal gain
      d (1 + p_ap) is NaN or below the smallest normal float.
    """
    scenario = seed_cli._load_scenario(args)
    axes = {ax.name: ax.values() for ax in scenario.sweep.axes}
    loss_db, mu, target = scenario.channel.loss_db, scenario.intensities.signal_mu, args.target_qber
    points = seed.optimize.trace_iso_qber_surface(
        axes["p_ap"], axes["intrinsic_error"], loss_db, target, scenario.receiver, mu,
    )
    lines, seed_lines = ours.splitlines(keepends=True), theirs.splitlines(keepends=True)
    assert len(lines) == len(seed_lines) == len(points) + 1 and lines[0] == seed_lines[0]
    tol, slack = ABS_TOLERANCE, qber_slack(target)
    for line, seed_line, point in zip(lines[1:], seed_lines[1:], points):
        if not point.feasible or abs(point.achieved_qber - target) < tol:
            assert line == seed_line
            continue
        cells, seed_cells = line[:-1].split(","), seed_line[:-1].split(",")
        assert line.endswith("\n") and cells[:3] == seed_cells[:3] and seed_cells[5] == "ok"
        receiver = seed.optimize._receiver_at(
            scenario.receiver, point.p_ap, point.intrinsic_error, 0.0
        )
        p_ap = seed.model.aggregate_afterpulse(receiver)
        eta = seed.model.transmittance(
            receiver, seed.model.ChannelModel(transmission_loss_db=loss_db)
        )
        if cells[5] == "not-converged":
            signal = -math.expm1(-eta * mu) * (1.0 + p_ap)
            assert math.isnan(signal) or signal < sys.float_info.min
            continue
        assert cells[5] == "ok"
        threshold = Decimal(cells[3])
        half_unit = Decimal(5).scaleb(threshold.adjusted() - 10)
        low, high = (
            total_qber(p_ap, receiver.intrinsic_error, receiver.background_error, eta, mu, str(v))
            for v in (max(threshold - half_unit, Decimal(0)), threshold + half_unit)
        )
        assert low < target + tol + slack and high > target - tol - slack
        lowest, highest = (Decimal(printed(Decimal(target) + k * Decimal(tol))) for k in (-1, 1))
        assert lowest <= Decimal(cells[4]) <= highest


def optimal_mu_root(e_detector: float, ec_efficiency: float) -> Decimal:
    """1 - W0(e r), r = f H2(e_det) / (1 - H2(e_det)), at 50 digits from the floats given."""
    with mpmath.workdps(50):
        e = mpmath.mpf(e_detector)
        h = 0 if e == 0 else -(e * mpmath.log(e) + (1 - e) * mpmath.log1p(-e)) / mpmath.log(2)
        root = 1 - mpmath.lambertw(mpmath.e * mpmath.mpf(ec_efficiency) * h / (1 - h)).real
        return Decimal(mpmath.nstr(root, 50))


def printed(root: Decimal) -> str:
    """``root`` correctly rounded to 10 significant digits, as the CLI prints a float."""
    return format(float(Context(prec=10).plus(root)), ".10g")


def _check_optimal_mu(ours: str, theirs: str, args: Namespace) -> None:
    """``e_detector`` and ``boundary`` as the seed code prints them; ``mu`` the 50-digit
    root of the seed's own e_det, correctly rounded; ``residual`` at most 2^-50."""
    scenario = seed_cli._load_scenario(args)
    receiver = scenario.receiver
    e_det = seed.model.effective_baseline_error(
        receiver.intrinsic_error, receiver.background_error,
        seed.model.aggregate_afterpulse(receiver),
    )
    mu = printed(optimal_mu_root(e_det, scenario.protocol.ec_efficiency))
    lines, seed_lines = ours.splitlines(keepends=True), theirs.splitlines(keepends=True)
    assert len(lines) == len(seed_lines)
    for line, seed_line in zip(lines, seed_lines):
        label, value = line[:22], line[22:-1]
        assert label == seed_line[:22] and line.endswith("\n")
        if label.rstrip() == "mu":
            assert value == mu
        elif label.rstrip() == "residual":
            assert float(value) <= 2.0 ** -50
        else:
            assert line == seed_line


def baseline_change_root(e_prime: float, e0: float, p_ap: float) -> Decimal:
    """(e0/e' - 1) p_ap / (1 + p_ap) at 50 digits from the floats given."""
    with mpmath.workdps(50):
        e_prime, e0, p_ap = (mpmath.mpf(v) for v in (e_prime, e0, p_ap))
        return Decimal(mpmath.nstr((e0 / e_prime - 1) * p_ap / (1 + p_ap), 50))


def finite_baseline_change(out: str, args: Namespace) -> str:
    """The seed code's ``sweep`` stdout ``out``, with each ``baseline_error_change`` cell
    that reads ``inf`` replaced by the 50-digit change at its node, correctly rounded.

    The seed code multiplies (e0/e' - 1) by p_ap before it divides by
    1 + p_ap, which overflows where the change itself is finite. A node's
    e', e0 and p_ap are the scenario's, overridden by its axis values, as
    the seed's sweep takes them.
    """
    scenario = seed_cli._load_scenario(args)
    receiver, spec = scenario.receiver, scenario.sweep
    header, *rows = csv.reader(io.StringIO(out))
    columns = [j for j, name in enumerate(header) if name == "baseline_error_change"]
    nodes = itertools.product(*(ax.values() for ax in spec.axes))
    for row, node in zip(rows, nodes, strict=True):
        at = dict(zip(spec.axis_names, node))
        for j in columns:
            if row[j] == "inf":
                row[j] = printed(baseline_change_root(
                    at.get("intrinsic_error", receiver.intrinsic_error), receiver.background_error,
                    at.get("p_ap", seed.model.aggregate_afterpulse(receiver)),
                ))
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows])
    return text.getvalue()


def _check_sweep(ours: str, theirs: str, args: Namespace) -> None:
    assert ours == finite_baseline_change(theirs, args)


ROWS = (
    Divergence(
        "unconverged_contour",
        "The dark-count bisection cannot run out of steps: ... `contour` finds the thresholds "
        "below 0.1/2^200 that the seed's 200 steps could not reach",
        lambda argv: argv[0] == "contour" and "--output" not in argv,
        _check_contour,
    ),
    Divergence(
        "optimal_mu_closed_form",
        "`optimal-mu` is the closed form mu = 1 - W0(e r): ...",
        lambda argv: argv[0] == "optimal-mu" and "--output" not in argv,
        _check_optimal_mu,
    ),
    Divergence(
        "finite_baseline_change",
        "`model.relative_change` computes (e0/e' - 1) (p_ap / (1 + p_ap)): ... `sweep` prints "
        "the finite change where it printed `inf`",
        lambda argv: argv[0] == "sweep" and "--output" not in argv,
        _check_sweep,
    ),
)


def compare(ours: tuple, theirs: tuple, argv: list[str]) -> None:
    """Assert that two CLI outcomes, (exit code, stdout, stderr, warnings), agree.

    They must be equal, except the stdout of a run that a row of ``ROWS``
    applies to and the seed code completed: that row's check judges it.
    """
    row = next((row for row in ROWS if row.applies(argv)), None)
    if row is not None and theirs[0] == 0:
        row.check(ours[1], theirs[1], seed_cli.build_parser().parse_args(argv))
        ours, theirs = (ours[0], *ours[2:]), (theirs[0], *theirs[2:])
    assert ours == theirs
