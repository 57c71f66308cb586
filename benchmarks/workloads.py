"""Seeded workload generation.

A workload is one ``decoylink`` CLI command plus the scenario file it reads.
The seed moves every grid endpoint that is not pinned at zero by at most
+-2 % and every point count by at most +-1, so each seed runs the same code
at nearly the same cost while a claimed gain can still be checked on a seed
that was not used while the change was written. The program under test only
sees the generated scenario file and command line.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import yaml

ENDPOINT_JITTER = 0.02
COUNT_JITTER = 1

ALL_METRICS = (
    "p_ap",
    "e_detector",
    "baseline_error_change",
    "visibility",
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

# Why each one was chosen is recorded in BENCHMARK.json.
NAMES = ("sweep_fixed", "preset_optimize", "contour")

# Every model parameter is written out, so the oracle does not depend on the
# program's defaults.
BASE = {
    "receiver": {
        "num_detectors": 2,
        "dark_count_prob_total": 6e-7,
        "intrinsic_error": 0.02,
        "background_error": 0.5,
        "detector_efficiency": 0.1,
    },
    "channel": {"loss_db": 10.0},
    "intensities": {"signal_mu": 0.48, "weak_decoy_nu1": 0.038},
    "protocol": {"sifting_factor": 0.5, "ec_efficiency": 1.16},
}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    args: tuple[str, ...]
    config: dict

    def argv(self, config_path: str, output_path: str) -> list[str]:
        """CLI arguments after ``python -m decoylink``."""
        return [
            self.subcommand,
            "--config",
            config_path,
            *self.args,
            "--output",
            output_path,
        ]

    def config_text(self) -> str:
        return yaml.safe_dump(self.config, sort_keys=False)


class _Jitter:
    def __init__(self, name: str, seed: int) -> None:
        self._rng = random.Random(f"{name}:{seed}")

    def scale(self, value: float) -> float:
        factor = 1.0 + ENDPOINT_JITTER * (2.0 * self._rng.random() - 1.0)
        return float(f"{value * factor:.6g}")

    def count(self, value: int) -> int:
        return value + int(self._rng.random() * (2 * COUNT_JITTER + 1)) - COUNT_JITTER


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; the same seed gives the same workload."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    j = _Jitter(name, seed)
    if name == "sweep_fixed":
        config = {
            **BASE,
            "sweep": {
                "axes": [
                    {"name": "p_ap", "min": j.scale(1e-4), "max": j.scale(2.0),
                     "count": j.count(80), "spacing": "log"},
                    {"name": "loss_db", "min": 0.0, "max": j.scale(50.0),
                     "count": j.count(80), "spacing": "linear"},
                ],
                "outputs": list(ALL_METRICS),
                "mu_policy": "fixed",
            },
        }
        return Workload(name, "sweep", (), config)
    if name == "preset_optimize":
        args = (
            "--points", str(j.count(30)),
            "--pap-min", repr(j.scale(1e-4)),
            "--pap-max", repr(j.scale(0.2)),
        )
        return Workload(name, "skr-vs-afterpulse", args, dict(BASE))
    config = {
        **BASE,
        "sweep": {
            "axes": [
                {"name": "p_ap", "min": j.scale(1e-3), "max": j.scale(0.5),
                 "count": j.count(36), "spacing": "log"},
                {"name": "intrinsic_error", "min": 0.0, "max": j.scale(0.1),
                 "count": j.count(36), "spacing": "linear"},
            ],
        },
    }
    return Workload(name, "contour", ("--target-qber", "0.09"), config)
