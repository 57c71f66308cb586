"""decoylink benchmark: three CLI workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: one CLI command at a time, each in
a fresh process, the next started when the previous one exits. The program
under test is the checkout's ``src/decoylink``; it only sees the scenario file
and command line generated from the seed (see workloads.py).

Every CLI output is checked against the output of the seed code (the frozen
copy in ``reference/``) for the same seed, and its hash must repeat across
runs; an independent 50-digit oracle spot-checks sampled nodes outside the
timed region. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Working files and a full result record go to ``.bench_cache/`` in the
checkout.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import check
import oracle
import workloads

HERE = Path(__file__).resolve().parent
# The frozen copy of the seed code: the reference for outputs and the yardstick
# for the paired timings.
REFERENCE = HERE / "reference"
CHILD_TIMEOUT_S = 120.0
MIN_TIMED_RUNS = 3
MIN_TRACED_RUNS = 2
ORACLE_SAMPLES_PER_STATUS = 8
DENSE_MU_POINTS = 1000
# Largest condition-scaled error accepted: between a printed CSV cell and the
# oracle (10 printed digits, inputs rounded the same way), and between the
# library at full precision and the oracle.
CSV_ORACLE_TOL = 1e-7
LIBRARY_ORACLE_TOL = 1e-10
CONTOUR_TARGET_TOL = 1e-9

END_TO_END_UNITS = {
    "wall_vs_seed": "ratio",
    "setup_s": "s",
    "node_vs_seed": "ratio",
    "peak_rss_mb": "MB",
}
# Raw timings behind the two ratios: printed and recorded, not metrics.
RAW_UNITS = {"wall_s": "s", "seed_wall_s": "s", "node_us": "us", "seed_node_us": "us"}
PER_LAYER_UNITS = {
    "import.s": "s",
    "config.load_scenario.s": "s",
    "sweep.axis_values.s": "s",
    "sweep.run_sweep.s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.nodes": "count",
    "sweep.status.ok": "count",
    "sweep.status.infeasible": "count",
    "sweep.status.model-domain-error": "count",
    "bounds.evaluate_link.calls": "count",
    "bounds.evaluate_link.s": "s",
    "bounds.estimate_single_photon.calls": "count",
    "bounds.clamped": "count",
    "model.aggregate_afterpulse.calls": "count",
    "model.gain_total.calls": "count",
    "model.qber_total.calls": "count",
    "optimize.maximize_skr_over_mu.calls": "count",
    "optimize.maximize_skr_over_mu.s": "s",
    "optimize.maximize.evals_per_call": "calls/call",
    "optimize.dark_count_threshold.calls": "count",
    "optimize.dark_count_threshold.s": "s",
    "optimize.threshold.qber_evals_per_call": "calls/call",
    "optimize.below_dense_grid": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "oracle.max_rel_err": "ratio",
}
# Per-layer metrics that must read the same in every traced run.
EXACT_LAYER_METRICS = tuple(
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "calls/call", "bytes")
)


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a run that gave wrong output)."""


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_kb: int


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path) -> Child:
    """Run ``argv`` to completion; wall time from spawn to reaping, peak RSS from wait4."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - start
    finally:
        os.close(pidfd)
    return Child(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss)


def paired(program_first: bool, program, seed) -> tuple:
    """Call ``program`` and ``seed`` back to back in the given order; results in that order."""
    if program_first:
        first = program()
        return first, seed()
    first = seed()
    return program(), first


class NodeTimer:
    """A ``probe.py node`` child kept alive to time one library call on request."""

    def __init__(self, bench: "Bench", src: Path, spec_path: Path, label: str) -> None:
        self.bench, self.src, self.spec_path, self.label = bench, src, spec_path, label

    def __enter__(self) -> "NodeTimer":
        self.stderr = open(self.bench.work / f"{self.label}.err", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "node", str(self.spec_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            env=python_env(self.src), text=True,
        )
        try:
            word, _, package = self._read().partition(" ")
            if word != "ready":
                raise BenchmarkError(f"{self.label} probe failed: "
                                     f"{self.bench._tail(self.label + '.err')}")
            if not package.startswith(str(self.src)):
                raise BenchmarkError(f"{self.label} probe imported {package}, not {self.src}")
        except BaseException:
            self.__exit__()
            raise
        return self

    def _read(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        return self.proc.stdout.readline().strip() if ready else ""

    def time_one(self) -> float:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        line = self._read()
        if not line:
            raise BenchmarkError(f"{self.label} probe failed: "
                                 f"{self.bench._tail(self.label + '.err')}")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.stderr.close()


def python_env(path: Path) -> dict:
    """Environment for a child that imports the package found under ``path``.

    The package does no linear algebra (numpy only builds axis grids), but
    importing numpy starts a BLAS thread pool. On a shared two-core machine,
    starting it was the largest source of set-up time noise (0.17 s against
    0.23 s, depending on the load on the other core). So the pool is held to
    one thread.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(path), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    """One benchmark invocation: its working files, checks and measurements."""

    def __init__(self, root: Path, workload: workloads.Workload, seed: int, seconds: float):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.src = root / "src"
        self.work = root / ".bench_cache" / f"{workload.name}-seed{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config_path = self.work / "scenario.yaml"
        self.output_path = self.work / "output.csv"
        self.argv = workload.argv(str(self.config_path), str(self.output_path))
        self.config_path.write_text(workload.config_text(), encoding="utf-8")
        self.spec_path = self._write_spec("spec.json", self.src)
        self.seed_spec_path = self._write_spec("spec-seed.json", REFERENCE)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Oracle results that describe the seed code's own behaviour and so
        # cannot gate correctness: see _check_optimum.
        self.findings: list[str] = []
        self.byte_identical = True
        self.first_hash: str | None = None
        self.last_output: bytes | None = None
        self.reference = self._reference()

    def _write_spec(self, name: str, src: Path) -> Path:
        path = self.work / name
        path.write_text(json.dumps({
            "workload": self.workload.name,
            "src": str(src),
            "config": str(self.config_path),
            "args": list(self.workload.args),
            "argv": self.argv,
        }), encoding="utf-8")
        return path

    def _reference(self) -> bytes:
        """The seed code's output for this workload and seed, cached by its inputs."""
        key = hashlib.sha256(
            json.dumps([self.argv, self.workload.config_text()]).encode()
        ).hexdigest()[:16]
        cached = self.work / f"reference-{key}.csv"
        if cached.exists():
            return cached.read_bytes()
        ref_argv = self.workload.argv(str(self.config_path), str(self.work / "reference.tmp"))
        child = spawn([sys.executable, "-m", "decoylink", *ref_argv],
                      python_env(REFERENCE), self.work / "reference.out",
                      self.work / "reference.err")
        if child.code != 0:
            raise BenchmarkError(
                f"reference run exited {child.code}: {self._tail('reference.err')}")
        os.replace(self.work / "reference.tmp", cached)
        return cached.read_bytes()

    def _tail(self, name: str) -> str:
        text = (self.work / name).read_text(encoding="utf-8", errors="replace").strip()
        return text.splitlines()[-1] if text else "(no output)"

    def _check_output(self, code: int, label: str) -> None:
        """Check one CLI output: exit code, agreement with the reference, repeatable hash."""
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {self._tail(label + '.err')}")
        data = self.output_path.read_bytes() if self.output_path.exists() else b""
        if not problems:
            problems = check.compare(data, self.reference)
            digest = hashlib.sha256(data).hexdigest()
            if self.first_hash is None:
                self.first_hash = digest
            elif digest != self.first_hash:
                problems.append("output hash differs from the first run of this code")
            self.byte_identical &= data == self.reference
        self.output_path.unlink(missing_ok=True)
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
            self.last_output = None
        else:
            self.last_output = data

    def cli(self) -> Child:
        child = spawn([sys.executable, "-m", "decoylink", *self.argv], python_env(self.src),
                      self.work / "cli.out", self.work / "cli.err")
        self._check_output(child.code, "cli")
        return child

    def seed_cli(self) -> Child:
        """The same command run by the seed code, for the paired timing.

        Its output is the cached reference, so only the exit code is checked.
        """
        output = self.work / "seed-output.csv"
        argv = self.workload.argv(str(self.config_path), str(output))
        child = spawn([sys.executable, "-m", "decoylink", *argv], python_env(REFERENCE),
                      self.work / "seed-cli.out", self.work / "seed-cli.err")
        output.unlink(missing_ok=True)
        if child.code != 0:
            raise BenchmarkError(f"seed code exited {child.code}: {self._tail('seed-cli.err')}")
        return child

    def probe(self, mode: str, *args: str) -> tuple[Child, object]:
        child = spawn([sys.executable, str(HERE / "probe.py"), mode, str(self.spec_path), *args],
                      python_env(self.src), self.work / f"{mode}.out", self.work / f"{mode}.err")
        if child.code != 0:
            raise BenchmarkError(f"probe {mode} exited {child.code}: {self._tail(mode + '.err')}")
        result = json.loads((self.work / f"{mode}.out").read_text(encoding="utf-8"))
        if mode == "trace":
            self._check_output(result["exit"], mode)
        if mode == "setup" and not result["package"].startswith(str(self.src)):
            raise BenchmarkError(f"imported {result['package']}, not the checkout's package")
        return child, result

    # -- end-to-end run ----------------------------------------------------

    def end_to_end(self) -> dict[str, list[float]]:
        """Rounds of one setup probe and paired CLI and library timings, for --seconds.

        The shared machine's speed drifts by up to a quarter over minutes and
        jumps within seconds, so a time taken alone tells as much about the
        machine as about the program. Each round therefore runs the CLI
        command and the timed library call twice, once on the program and
        once on the seed code, back to back and in alternating order. The
        timing metrics are medians of the per-round ratios, which cancel the
        machine's drift; the raw times are kept as samples. Interleaving puts
        every metric's samples across the whole run. Starting the node timers
        byte-compiles both packages before any timing.
        """
        samples: dict[str, list[float]] = {
            name: [] for name in ("setup_s", "peak_rss_mb", *RAW_UNITS)}
        with (NodeTimer(self, self.src, self.spec_path, "node") as node,
              NodeTimer(self, REFERENCE, self.seed_spec_path, "seed-node") as seed_node):
            start = perf_counter()
            rounds = 0
            while rounds < MIN_TIMED_RUNS or perf_counter() - start < self.seconds:
                program_first = rounds % 2 == 0
                samples["setup_s"].append(self.probe("setup")[1]["setup_s"])
                child, seed_child = paired(program_first, self.cli, self.seed_cli)
                samples["wall_s"].append(child.wall_s)
                samples["seed_wall_s"].append(seed_child.wall_s)
                samples["peak_rss_mb"].append(child.maxrss_kb / 1024.0)
                node_us, seed_node_us = paired(program_first, node.time_one, seed_node.time_one)
                samples["node_us"].append(node_us)
                samples["seed_node_us"].append(seed_node_us)
                rounds += 1
        for name, raw in (("wall_vs_seed", "wall_s"), ("node_vs_seed", "node_us")):
            samples[name] = [a / b for a, b in zip(samples[raw], samples["seed_" + raw])]
        return samples

    # -- traced run --------------------------------------------------------

    def traced(self) -> dict:
        """Alternate untraced CLI runs and traced in-process runs for --seconds."""
        self.cli()  # warm-up: byte-compiles the package; checked, not timed
        start = perf_counter()
        walls, traced_walls, layers = [], [], []
        while (len(layers) < MIN_TRACED_RUNS
               or perf_counter() - start < self.seconds):
            walls.append(self.cli().wall_s)
            child, result = self.probe("trace")
            traced_walls.append(child.wall_s)
            layers.append(self.layer_metrics(result))
        metrics = {"trace.overhead_s": statistics.median(traced_walls) - statistics.median(walls)}
        for name in layers[0]:
            values = [run[name] for run in layers]
            if name in EXACT_LAYER_METRICS:
                if len(set(values)) != 1:
                    self.problems.append(f"{name} differs between traced runs: {sorted(set(values))}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        return metrics

    def layer_metrics(self, result: dict) -> dict:
        spans = result["spans"]

        def span(name: str, key: str) -> float:
            return spans.get(name, {}).get(key, 0)

        counts: dict[str, int] = {}
        nested: dict[tuple[str, str], int] = {}
        for fn, parent, n in result["counts"]:
            counts[fn] = counts.get(fn, 0) + n
            nested[fn, parent] = n
        maximize_calls = span("optimize.maximize_skr_over_mu", "calls")
        threshold_calls = span("optimize.dark_count_threshold", "calls")
        evals_in_maximize = spans.get("bounds.evaluate_link", {}).get("parents", {}).get(
            "optimize.maximize_skr_over_mu", 0)
        qber_in_threshold = nested.get(("model.qber_total", "optimize.dark_count_threshold"), 0)
        statuses = self._statuses(self.last_output)
        return {
            "import.s": result["import_s"],
            "config.load_scenario.s": span("config.load_scenario", "s"),
            "sweep.axis_values.s": span("sweep.axis_values", "s"),
            "sweep.run_sweep.s": span("sweep.run_sweep", "s"),
            "sweep.run_sweep.self_s": span("sweep.run_sweep", "self_s"),
            "sweep.nodes": sum(statuses.values()),
            "sweep.status.ok": statuses.get("ok", 0),
            "sweep.status.infeasible": statuses.get("infeasible", 0),
            "sweep.status.model-domain-error": statuses.get("model-domain-error", 0),
            "bounds.evaluate_link.calls": span("bounds.evaluate_link", "calls"),
            "bounds.evaluate_link.s": span("bounds.evaluate_link", "s"),
            "bounds.estimate_single_photon.calls": counts.get("bounds.estimate_single_photon", 0),
            "bounds.clamped": result["flagged"].get("bounds.estimate_single_photon", 0),
            "model.aggregate_afterpulse.calls": counts.get("model.aggregate_afterpulse", 0),
            "model.gain_total.calls": counts.get("model.gain_total", 0),
            "model.qber_total.calls": counts.get("model.qber_total", 0),
            "optimize.maximize_skr_over_mu.calls": maximize_calls,
            "optimize.maximize_skr_over_mu.s": span("optimize.maximize_skr_over_mu", "s"),
            "optimize.maximize.evals_per_call":
                evals_in_maximize / maximize_calls if maximize_calls else 0.0,
            "optimize.dark_count_threshold.calls": threshold_calls,
            "optimize.dark_count_threshold.s": span("optimize.dark_count_threshold", "s"),
            "optimize.threshold.qber_evals_per_call":
                qber_in_threshold / threshold_calls if threshold_calls else 0.0,
            "cli.main.s": span("cli.main", "s"),
            "cli.main.self_s": span("cli.main", "self_s"),
            "cli.output_bytes": len(self.last_output or b""),
        }

    @staticmethod
    def _statuses(data: bytes | None) -> dict[str, int]:
        if not data:
            return {}
        rows = csv.DictReader(io.StringIO(data.decode("utf-8"), newline=""))
        counts: dict[str, int] = {}
        for row in rows:
            counts[row["status"]] = counts.get(row["status"], 0) + 1
        return counts

    # -- oracle spot check -------------------------------------------------

    def spot_check(self) -> float:
        """Compare sampled nodes with the oracle; returns the library's largest error."""
        output = self.last_output or self.reference
        rows = list(csv.DictReader(io.StringIO(output.decode("utf-8"), newline="")))
        rng = random.Random(f"oracle:{self.workload.name}:{self.seed}")
        groups: dict[str, list[dict]] = {}
        for row in rows:
            key = row["status"]
            if key == "ok" and row.get("reason"):
                key += "/" + row["reason"]
            groups.setdefault(key, []).append(row)
        sample = [row for key in sorted(groups)
                  for row in rng.sample(groups[key], min(ORACLE_SAMPLES_PER_STATUS, len(groups[key])))]
        nodes = [self._node(row) for row in sample]
        nodes_path = self.work / "oracle-nodes.json"
        detectors = self.workload.config["receiver"]["num_detectors"]
        nodes_path.write_text(json.dumps([{**node, "num_detectors": detectors} for node in nodes]),
                              encoding="utf-8")
        library = self.probe("evaluate", str(nodes_path))[1]

        max_err = 0.0
        for row, node, lib in zip(sample, nodes, library):
            exact, scales, status = oracle.precise(**node)
            where = "oracle node " + ",".join(list(row.values())[:4])
            expected_status = row["status"]
            if self.workload.name == "contour":
                # Feasible means the QBER at zero dark counts is within the target.
                floor, _, _ = oracle.precise(**{**node, "p_dc": 0.0})
                if (floor["e_mu"] <= self._target()) != (row["status"] == "ok"):
                    self.problems.append(f"{where}: status {row['status']!r} but oracle QBER "
                                         f"{float(floor['e_mu']):.6g} at zero dark counts")
                if row["status"] != "ok":
                    continue
                # The row's status is the contour's; the link at the threshold may
                # still be infeasible for decoy estimation.
                expected_status = status
            if status != expected_status or lib["status"] != expected_status:
                self.problems.append(f"{where}: status {row['status']!r}, oracle {status!r}, "
                                     f"library {lib['status']!r}")
                continue
            for name, value in self._csv_values(row).items():
                err = oracle.scaled_error(value, exact[name], scales[name])
                if not err <= CSV_ORACLE_TOL:
                    self.problems.append(f"{where}: CSV {name}={value!r} off the oracle by {err:.3g}")
            for name, value in lib.get("values", {}).items():
                if value is None or exact.get(name) is None:
                    continue
                err = oracle.scaled_error(value, exact[name], scales[name])
                max_err = max(max_err, err)
        if not max_err <= LIBRARY_ORACLE_TOL:
            self.problems.append(f"library differs from the oracle by {max_err:.3g}")
        if self.workload.name == "preset_optimize":
            self._check_optimum(sample, nodes)
        if self.workload.name == "contour":
            self._check_targets(rows)
        return max_err

    def _target(self) -> float:
        args = self.workload.args
        return float(args[args.index("--target-qber") + 1])

    def _node(self, row: dict) -> dict:
        """Oracle inputs for one CSV row: its printed axis values plus the scenario."""
        cfg = self.workload.config
        receiver, intensities, protocol = cfg["receiver"], cfg["intensities"], cfg["protocol"]
        node = {
            "p_ap": float(row["p_ap"]),
            "p_dc": receiver["dark_count_prob_total"],
            "e_prime": receiver["intrinsic_error"],
            "e0": receiver["background_error"],
            "efficiency": receiver["detector_efficiency"],
            "loss_db": cfg["channel"]["loss_db"],
            "mu": intensities["signal_mu"],
            "nu1": intensities["weak_decoy_nu1"],
            "q": protocol["sifting_factor"],
            "f": protocol["ec_efficiency"],
        }
        for column, key in (("loss_db", "loss_db"), ("intrinsic_error", "e_prime"),
                            ("weak_decoy_nu1", "nu1"), ("mu_opt", "mu"),
                            ("dark_count_threshold", "p_dc")):
            if row.get(column):
                node[key] = float(row[column])
        return node

    def _csv_values(self, row: dict) -> dict[str, float]:
        """The row's metric cells, named as the oracle names them."""
        if self.workload.name == "contour":
            return {"e_mu": float(row["achieved_qber"])}
        skip = {"loss_db", "weak_decoy_nu1", "intrinsic_error", "mu_opt", "status", "reason"}
        return {name: float(value) for name, value in row.items()
                if name not in skip and value != ""}

    def _check_optimum(self, sample: list[dict], nodes: list[dict]) -> None:
        """Report sampled nodes whose optimized key rate is below the best of a dense mu grid.

        These are findings, not failures: the seed code misses a positive key
        that lies only at the lower edge of the mu bracket (its golden-section
        search converges inside a flat zero region). The reference pins that
        output, so a program that fixed it would fail the reference check;
        gating on both could never pass. The count is the per-layer metric
        ``optimize.below_dense_grid``.
        """
        for row, node in zip(sample, nodes):
            lo, hi = node["nu1"] + 1e-6, 1.5
            best = 0.0
            for k in range(DENSE_MU_POINTS):
                mu = lo + (hi - lo) * k / (DENSE_MU_POINTS - 1)
                values, _, status = oracle.fast(**{**node, "mu": mu})
                if status != "model-domain-error":
                    best = max(best, values["skr_lower"])
            found = float(row["skr_lower"])
            if found < best * (1.0 - 1e-9):
                self.findings.append(
                    f"optimizer at p_ap={row['p_ap']} loss={row['loss_db']} "
                    f"e'={row['intrinsic_error']}: skr {found!r} below dense-grid best {best!r}")

    def _check_targets(self, rows: list[dict]) -> None:
        """Every feasible contour node meets the target QBER."""
        target = self._target()
        for row in rows:
            if row["status"] == "ok":
                achieved = float(row["achieved_qber"])
                if not abs(achieved - target) <= CONTOUR_TARGET_TOL:
                    self.problems.append(f"contour node p_ap={row['p_ap']} "
                                         f"e'={row['intrinsic_error']}: QBER {achieved!r} "
                                         f"misses target {target!r}")


def environment(root: Path) -> dict:
    commit = "unknown: not a git checkout"
    if (root / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
    }


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "decoylink" / "__init__.py").is_file():
        raise BenchmarkError(f"no src/decoylink under {root}: run from the root of a checkout")
    bench = Bench(root, workloads.generate(args.workload, args.seed), args.seed, args.seconds)
    samples: dict[str, list[float]] = {}
    if args.trace:
        metrics = bench.traced()
    else:
        samples = bench.end_to_end()
        metrics = {name: statistics.median(samples[name]) for name in END_TO_END_UNITS}
    max_err = bench.spot_check()
    if args.trace:
        metrics["oracle.max_rel_err"] = max_err
        metrics["optimize.below_dense_grid"] = len(bench.findings)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    return {
        "bench": bench,
        "samples": samples,
        "result": {
            "correct": bench.failed == 0 and not bench.problems,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
        "oracle_max_rel_err": max_err,
    }


def report(args, outcome: dict) -> None:
    bench, result, samples = outcome["bench"], outcome["result"], outcome["samples"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{' '.join(bench.workload.argv('scenario.yaml', 'out.csv'))}")
    rows = [(name, entry["value"], entry["unit"]) for name, entry in result["metrics"].items()]
    if samples:
        rows += [(f"{name} (raw)", statistics.median(samples[name]), unit)
                 for name, unit in RAW_UNITS.items()]
    for name, value, unit in rows:
        line = f"  {name:<40} {value:>14.6g} {unit}"
        values = samples.get(name.removesuffix(" (raw)"))
        if values:
            q1, _, q3 = quartiles(values)
            line += f"  (median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    print(f"  failed_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} checked runs)")
    print(f"  byte_identical_to_reference {bench.byte_identical}, "
          f"oracle.max_rel_err {outcome['oracle_max_rel_err']:.3g}")
    for problem in bench.problems[:20]:
        print(f"  problem: {problem}")
    for finding in bench.findings:
        print(f"  finding: {finding}")
    env = environment(bench.root)
    print("env " + json.dumps(env))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "samples": samples,
              "byte_identical": bench.byte_identical, "problems": bench.problems,
              "findings": bench.findings, **result}
    (bench.work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(args, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
