"""In-memory tracing for the traced benchmark run.

``install`` replaces public functions of the package under test with
wrappers, in every module of the package that binds them, so calls made
through ``from .x import f`` bindings are seen too. Span wrappers record
(name, parent, start, end); count wrappers only increment a counter keyed by
the function and the innermost open span, which keeps their cost low on the
hot ``model.*`` functions. Nothing is written until the run ends. Untraced
runs never import this module.
"""
from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

ROOT = None  # parent of a span opened outside any other span


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, parent index or ROOT, start ns, end ns].
        self.spans: list[list] = []
        # (function name, name of the innermost open span or ROOT) -> calls.
        self.counts: Counter = Counter()
        # Number of calls whose result had a true ``flag`` attribute, by name.
        self.flagged: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else ROOT, perf_counter_ns(), 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter_ns()
                stack.pop()

        return wrapper

    def count(self, name: str, fn, flag: str | None = None):
        spans, stack, counts, flagged = self.spans, self._stack, self.counts, self.flagged

        def wrapper(*args, **kwargs):
            counts[name, spans[stack[-1]][0] if stack else ROOT] += 1
            result = fn(*args, **kwargs)
            if flag is not None and getattr(result, flag):
                flagged[name] += 1
            return result

        return wrapper


def install(package: str, target: str, wrap) -> bool:
    """Replace ``package.target`` by ``wrap(original)`` wherever the package binds it.

    ``target`` is ``module.function`` or ``module.Class.method``. Returns False
    when the target does not exist, so a later version of the program that
    drops a function reports zero calls rather than failing.
    """
    parts = target.split(".")
    owner = sys.modules.get(f"{package}.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
    original = getattr(owner, parts[-1], None)
    if original is None:
        return False
    wrapped = wrap(original)
    if isinstance(owner, type):
        setattr(owner, parts[-1], wrapped)
        return True
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
    return True


def covered_ns(interval: tuple[int, int], children: list[tuple[int, int]]) -> int:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    total, reach = 0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for _, parent, start, end in spans:
        if parent is not ROOT:
            children[parent].append((start, end))
    return [
        (end - start) - covered_ns((start, end), children[idx])
        for idx, (_, _, start, end) in enumerate(spans)
    ]


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, total seconds, self seconds and calls per parent span name."""
    spans = tracer.spans
    self_ns = self_times_ns(spans)
    out: dict[str, dict] = {}
    for idx, (name, parent, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "parents": {}})
        entry["calls"] += 1
        parent_name = ROOT if parent is ROOT else spans[parent][0]
        entry["parents"][parent_name] = entry["parents"].get(parent_name, 0) + 1
        entry["s"] += (end - start) / 1e9
        entry["self_s"] += self_ns[idx] / 1e9
    return out
