"""Correctness check of one CLI output against the reference output.

The reference is what the seed code (the frozen copy under ``reference/``)
writes for the same workload and seed. The header and the ``status`` and
``reason`` columns must match exactly; every other cell must be empty in
both files or hold numbers that agree within

    |out - ref| <= RTOL * |ref| + ATOL.

RTOL allows a change that reorders floating-point arithmetic to flip the last
of the 10 printed significant digits (at most 1e-9 relative) with a margin;
ATOL only matters for values that cancel to nearly zero, such as ``skr_raw``
at the edge of a positive key, whose inputs are of order 1e-3.
"""
from __future__ import annotations

import csv
import io
import math

RTOL = 1e-8
ATOL = 1e-15
EXACT_COLUMNS = ("status", "reason")
MAX_PROBLEMS = 5


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def _cell_problem(column: str, out: str, ref: str) -> str | None:
    if out == ref:
        return None
    if column in EXACT_COLUMNS or not out or not ref:
        return f"{column}: {out!r} != reference {ref!r}"
    try:
        a, b = float(out), float(ref)
    except ValueError:
        return f"{column}: {out!r} != reference {ref!r}"
    if math.isfinite(a) and math.isfinite(b) and abs(a - b) <= RTOL * abs(b) + ATOL:
        return None
    return f"{column}: {out!r} differs from reference {ref!r} beyond rtol={RTOL:g}"


def compare(output: bytes, reference: bytes) -> list[str]:
    """Problems that make ``output`` disagree with ``reference``; empty when it agrees."""
    if output == reference:
        return []
    out_rows, ref_rows = _rows(output), _rows(reference)
    if not out_rows or not ref_rows:
        return ["empty output" if not out_rows else "empty reference"]
    header = ref_rows[0]
    if out_rows[0] != header:
        return [f"header {out_rows[0]!r} != reference {header!r}"]
    if len(out_rows) != len(ref_rows):
        return [f"{len(out_rows) - 1} rows != reference {len(ref_rows) - 1}"]
    problems = []
    for line, (out_row, ref_row) in enumerate(zip(out_rows, ref_rows), start=1):
        if len(out_row) != len(ref_row):
            problems.append(f"line {line}: {len(out_row)} cells != reference {len(ref_row)}")
            continue
        for column, out, ref in zip(header, out_row, ref_row):
            problem = _cell_problem(column, out, ref)
            if problem is not None:
                problems.append(f"line {line}: {problem}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems
