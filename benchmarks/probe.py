"""Measurements taken inside a fresh process of the program under test.

Usage: python benchmarks/probe.py MODE SPEC.json [ARG]

SPEC.json describes the workload (written by run.py); the package must be
importable from the directory named by its ``src`` key: the checkout's
``src`` for the program under test, ``reference`` for the seed code. Each
mode but ``node`` prints one JSON object on stdout:

- ``setup``: seconds to import the package, load the scenario and build
  every axis's values;
- ``node``: microseconds per grid node of the workload's library entry
  point; after one warm-up call it prints ``ready`` and the path of the
  package it imported, then times one call per line read from stdin,
  printing one number per call, until stdin closes;
- ``trace``: the CLI command run in process with the tracer installed, with
  its exit code, import time, spans and counts;
- ``evaluate ARG``: library values at the oracle's sample nodes listed in
  the JSON file ARG, at full precision.
"""
from __future__ import annotations

import json
import math
import sys
from time import perf_counter

# Span name -> function wrapped, relative to the package.
SPANS = {
    "cli.main": "cli.main",
    "config.load_scenario": "config.load_scenario",
    "sweep.axis_values": "sweep.Axis.values",
    "sweep.run_sweep": "sweep.run_sweep",
    "optimize.maximize_skr_over_mu": "optimize.maximize_skr_over_mu",
    "optimize.dark_count_threshold": "optimize.dark_count_threshold",
    "bounds.evaluate_link": "bounds.evaluate_link",
}
# Counted, not timed: these run many times per node. Name -> flag attribute
# of the result to count as well, or None.
COUNTS = {
    "model.aggregate_afterpulse": None,
    "model.gain_total": None,
    "model.qber_total": None,
    "bounds.estimate_single_photon": "clamped",
}


def _preset_args(spec: dict) -> dict:
    args = spec["args"]
    return {args[i]: args[i + 1] for i in range(0, len(args), 2)}


def _axes(decoylink, scenario, spec: dict):
    if spec["workload"] == "preset_optimize":
        args = _preset_args(spec)
        return [decoylink.Axis("p_ap", float(args["--pap-min"]), float(args["--pap-max"]),
                               int(args["--points"]), "log")]
    return list(scenario.sweep.axes)


def setup(spec: dict) -> dict:
    start = perf_counter()
    import decoylink

    scenario = decoylink.load_scenario(spec["config"])
    for axis in _axes(decoylink, scenario, spec):
        axis.values()
    return {"setup_s": perf_counter() - start, "package": decoylink.__file__}


def _entry(spec: dict):
    """The workload's library entry point as a no-argument callable, and its node count."""
    from dataclasses import replace

    import decoylink
    from decoylink import cli

    scenario = decoylink.load_scenario(spec["config"])
    name = spec["workload"]
    if name == "sweep_fixed":
        sweep = scenario.sweep
        return (lambda: decoylink.run_sweep(sweep)), math.prod(ax.count for ax in sweep.axes)
    if name == "preset_optimize":
        (axis,) = _axes(decoylink, scenario, spec)
        specs = [
            decoylink.SweepSpec(
                receiver=replace(scenario.receiver, intrinsic_error=e_prime),
                channel=decoylink.ChannelModel(transmission_loss_db=loss_db),
                intensities=decoylink.IntensitySet(1.0, decoylink.NU1_BY_LOSS_DB[loss_db]),
                protocol=scenario.protocol,
                axes=(axis,),
                outputs=("skr_lower",),
                mu_policy="optimize-per-point",
            )
            for loss_db in sorted(decoylink.NU1_BY_LOSS_DB)
            for e_prime in cli.PRESET_INTRINSIC_ERRORS
        ]
        return (lambda: [decoylink.run_sweep(s) for s in specs]), len(specs) * axis.count
    axes = {ax.name: ax.values() for ax in scenario.sweep.axes}
    target = float(spec["args"][spec["args"].index("--target-qber") + 1])

    def contour():
        return decoylink.trace_iso_qber_surface(
            axes["p_ap"], axes["intrinsic_error"], scenario.channel.loss_db, target,
            scenario.receiver, scenario.intensities.signal_mu,
        )

    return contour, len(axes["p_ap"]) * len(axes["intrinsic_error"])


def node(spec: dict) -> None:
    run, nodes = _entry(spec)
    run()
    import decoylink

    print("ready", decoylink.__file__, flush=True)
    for _ in sys.stdin:
        start = perf_counter()
        run()
        print(repr((perf_counter() - start) * 1e6 / nodes), flush=True)


def trace(spec: dict) -> dict:
    start = perf_counter()
    import decoylink.cli

    import_s = perf_counter() - start
    import spans

    tracer = spans.Tracer()
    missing = []
    for name, target in SPANS.items():
        if not spans.install("decoylink", target, lambda fn, n=name: tracer.span(n, fn)):
            missing.append(target)
    for name, flag in COUNTS.items():
        if not spans.install("decoylink", name, lambda fn, n=name, f=flag: tracer.count(n, fn, f)):
            missing.append(name)
    code = decoylink.cli.main(spec["argv"])
    return {
        "exit": code,
        "import_s": import_s,
        "missing": missing,
        "spans": spans.summarize(tracer),
        "counts": [[fn, parent, n] for (fn, parent), n in sorted(tracer.counts.items(), key=str)],
        "flagged": dict(tracer.flagged),
    }


def evaluate(nodes: list[dict]) -> list[dict]:
    import decoylink
    from decoylink import model
    from decoylink.errors import DecoyLinkError

    out = []
    for p in nodes:
        try:
            receiver = decoylink.ReceiverModel.identical(
                p["num_detectors"], p["p_ap"], dark_count_prob_total=p["p_dc"],
                intrinsic_error=p["e_prime"], background_error=p["e0"],
                detector_efficiency=p["efficiency"],
            )
            metrics = decoylink.evaluate_link(
                receiver, decoylink.ChannelModel(transmission_loss_db=p["loss_db"]),
                decoylink.IntensitySet(p["mu"], p["nu1"]),
                decoylink.ProtocolParams(p["q"], p["f"]),
            )
        except DecoyLinkError:
            out.append({"status": "model-domain-error"})
            continue
        estimate = metrics.estimate
        values = {
            "y0": metrics.y0_measured, "q_mu": metrics.q_mu, "e_mu": metrics.e_mu,
            "q_nu1": metrics.q_nu1, "e_nu1": metrics.e_nu1,
            "y1_lower": estimate and estimate.y1_lower,
            "e1_upper": estimate and estimate.e1_upper,
            "q1_lower": estimate and estimate.q1_lower,
            "skr_raw": metrics.skr_raw, "skr_lower": metrics.skr_lower,
            "skr_approx": metrics.skr_approx,
            "e_detector": model.effective_baseline_error(p["e_prime"], p["e0"], p["p_ap"]),
            "visibility": model.visibility(p["e_prime"], p["e0"], p["p_ap"]),
        }
        out.append({"status": "infeasible" if metrics.reason else "ok", "values": values})
    return out


def main(argv: list[str]) -> int:
    mode, spec_path, *rest = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    if mode == "node":
        node(spec)
        return 0
    if mode == "setup":
        result = setup(spec)
    elif mode == "trace":
        result = trace(spec)
    elif mode == "evaluate":
        with open(rest[0], encoding="utf-8") as fh:
            result = evaluate(json.load(fh))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
