"""The benchmark's workloads, their correctness gates and the fixed layer
probes that supply per-layer metrics for layers a workload does not call.

Every call goes through a public function of the package, or through the
``capheat`` command line in a fresh interpreter, and is timed from outside.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import capheat.heat_coeffs
import capheat.spectral_oracle
from capheat import (
    AngleParams,
    SphereBase,
    SuspensionConfig,
    compute_table,
    dirichlet_roots,
    ferrers_p,
    fit_asymptotics,
    gauss_2f1,
    heat_trace,
    spectrum,
)
from capheat.legendre_asymptotics import omega_structures

import reference

ROOT = reference.ROOT
CHILD_TIMEOUT_S = 120

# verify-cap: criterion 6's geometry at one third of its cutoff (120 -> 40),
# with the time window scaled by 9 so the tail certificate still holds.
VERIFY_THETA0 = math.pi / 3
VERIFY_OMEGA_MAX = 40.0
VERIFY_T = (1.35e-2, 1.44e-1, 24)
VERIFY_TOLERANCE = 1e-6
VERIFY_REL_ERROR_GATE = 0.02
ROOT_ATOL = 1e-10
VERIFY_POINT = {
    "name": "verify-D3-thetapi/3-sphere-m0",
    "D": 3,
    "theta0": VERIFY_THETA0,
    "base": "sphere",
    "mass": 0.0,
}
# The oracle probe halves the cutoff again (time window scaled by 4) so that
# workloads without the oracle pay about 2 s for its layer metrics.
PROBE_OMEGA_MAX = 20.0
PROBE_T = (5.4e-2, 0.576, 24)

# The README's CLI examples except `verify`, plus two heavier commands.
CLI_COMMANDS = {
    "coeffs-dim3": ["coeffs", "--dim", "3", "--theta0", "1.0471975511965976",
                    "--base", "sphere", "--max-n", "2"],
    "coeffs-dim4-csv": ["coeffs", "--dim", "4", "--theta0-deg", "60", "--max-n", "3",
                        "--format", "csv"],
    "omega-order5-json": ["omega", "--order", "5", "--format", "json"],
    "omega-order3-tex": ["omega", "--order", "3", "--format", "tex"],
    "roots-mu0.5": ["roots", "--mu", "0.5", "--theta0", "1.5707963267948966",
                    "--omega-max", "20"],
    "coeffs-dim8": ["coeffs", "--dim", "8", "--theta0", "0.3", "--max-n", "7"],
    "omega-order10": ["omega", "--order", "10"],
}
CLI_PROBE = ("coeffs-dim3", "omega-order5-json", "roots-mu0.5")

IMPORT_CHILD = (
    "import time; t = time.perf_counter(); import capheat.cli; "
    "print(time.perf_counter() - t)"
)
OMEGA_COLD_CHILD = (
    "import time; import capheat.legendre_asymptotics as la; "
    "t = time.perf_counter(); s = la.omega_structures(10); "
    "dt = time.perf_counter() - t; "
    "print(dt, sum(c != 0 for o in s for f in (o.x_coeffs, o.z0_coeffs, o.z_coeffs) "
    "for c in f.values()))"
)

# Cross-layer calls the package makes through module attributes; a traced
# segment wraps each in a span.
BOUNDARIES = (
    (capheat.heat_coeffs, "c1", "special_eval.c1"),
    (capheat.heat_coeffs, "f_total", "special_eval.f_total"),
    (capheat.heat_coeffs, "omega_structures", "legendre_asymptotics.omega_structures"),
    (capheat.spectral_oracle, "dirichlet_roots", "spectral_oracle.dirichlet_roots"),
)


@dataclass
class Outcome:
    """One timed operation and the verdict of its correctness gate."""

    name: str
    seconds: float
    ok: bool
    detail: str = ""
    raised: bool = False


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float
    peak_rss_mb: float


def child_env() -> dict:
    """Environment of every child interpreter: the checkout's sources only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str]) -> Child:
    """Run ``python <args>`` from the checkout root; wall time from spawn to
    reap, and the child's own peak RSS."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        with proc.stdout, proc.stderr:
            stdout = proc.stdout.read()
            stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, stdout, stderr, seconds, usage.ru_maxrss / 1024)


# --------------------------------------------------------------------------
# Correctness gates
# --------------------------------------------------------------------------


def check_table(table, expected: dict) -> tuple[int, int, float]:
    """(entries within reference.ENTRY_RTOL of the 60-digit reference,
    entries checked, worst relative error)."""
    pairs = [
        (getattr(e, key), expected[key][e.n])
        for e in table.entries
        for key in ("script_A", "cal_A")
    ]
    if len(table.entries) != len(expected["cal_A"]):
        pairs.append((None, 0.0))
    pairs.append((table.log_coefficient, expected["log_coefficient"]))
    ok, worst = 0, 0.0
    for got, ref in pairs:
        if got is None or ref is None:
            err = 0.0 if got is ref else math.inf
        else:
            err = abs(got - ref) / abs(ref) if ref else abs(got)
        worst = max(worst, err)
        ok += err <= reference.ENTRY_RTOL
    return ok, len(pairs), worst


def roots_mismatch(channels, expected: list[dict]) -> str | None:
    """Why the channels differ from the recorded roots, or None."""
    if len(channels) != len(expected):
        return f"{len(channels)} channels, reference has {len(expected)}"
    for ch, ref in zip(channels, expected):
        if ch.mu != ref["mu"] or len(ch.roots) != len(ref["roots"]):
            return f"channel mu={ch.mu} has {len(ch.roots)} roots, reference {len(ref['roots'])}"
        worst = max((abs(a - float(b)) for a, b in zip(ch.roots, ref["roots"])), default=0.0)
        if worst > ROOT_ATOL:
            return f"channel mu={ch.mu}: a root moved by {worst:.2e}"
    return None


def stdout_mismatch(child: Child, expected_sha256: str) -> str | None:
    """Why a CLI run does not reproduce the recorded output, or None."""
    if child.returncode != 0:
        tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {child.returncode}: {' '.join(tail)}"
    if hashlib.sha256(child.stdout).hexdigest() != expected_sha256:
        return "stdout differs from the recorded output"
    return None


def parse_tables(tables: dict) -> dict:
    """Recorded reference tables (decimal strings) as floats."""
    return {
        name: {
            key: None if value is None else (
                float(value) if isinstance(value, str) else [float(v) for v in value]
            )
            for key, value in table.items()
        }
        for name, table in tables.items()
    }


def load_assembly_reference() -> dict:
    raw = json.loads(reference.ASSEMBLY_FILE.read_text())
    return {"tables": parse_tables(raw["tables"]), "known_defects": raw["known_defects"]}


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


@dataclass
class Pipeline:
    channels: list
    samples: list
    fit: object
    table: object

    @property
    def rel_errors(self) -> list[float]:
        return [
            abs(self.fit.coefficients[e.n] - e.cal_A) / abs(e.cal_A)
            for e in self.table.entries
        ]


def verify_config() -> SuspensionConfig:
    return SuspensionConfig(
        D=3, angle=AngleParams.from_theta0(VERIFY_THETA0), base=SphereBase(2), n_max=2
    )


def verify_pipeline(tracer, omega_max=VERIFY_OMEGA_MAX, t_range=VERIFY_T) -> Pipeline:
    """The library calls behind ``capheat verify``, each in its own span."""
    cfg = verify_config()
    with tracer.span("spectral_oracle.spectrum"):
        channels = spectrum(cfg.d, VERIFY_THETA0, omega_max)
    ts = [float(t) for t in np.geomspace(*t_range)]
    with tracer.span("spectral_oracle.heat_trace"):
        samples = heat_trace(
            cfg, ts, tolerance=VERIFY_TOLERANCE, omega_max=omega_max, channels=channels
        )
    with tracer.span("spectral_oracle.fit_asymptotics"):
        fit = fit_asymptotics(samples, cfg.D, 4)
    with tracer.span("heat_coeffs.compute_table"):
        table = compute_table(cfg)
    return Pipeline(channels, samples, fit, table)


class Workload:
    """A closed loop with one caller: ``round`` issues each operation only
    after the previous one returned.  ``round_seconds`` is the cost of one
    round at the commit that defined the benchmark; a run makes
    round(seconds / round_seconds) rounds, so both sides of a comparison
    measure the same work."""

    name = ""
    round_seconds = 1.0
    layers: frozenset = frozenset()
    # Whether the operations run in the benchmark's own process or in fresh
    # interpreters; the reference loop of speed.py runs where they do.
    in_process = True

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, rng, tracer) -> list[Outcome]:
        raise NotImplementedError

    def fill_facts(self, facts: "LayerFacts") -> None:
        """Hand over the outputs the per-layer metrics need."""

    def report(self) -> list[tuple[str, float, str]]:
        """Extra (name, value, unit) lines for the human-readable report."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class VerifyCap(Workload):
    name = "verify-cap"
    round_seconds = 7.5
    layers = frozenset({"spectral_oracle", "heat_coeffs"})

    def setup(self) -> None:
        self.roots = json.loads(reference.ROOTS_FILE.read_text())["channels"]
        self.expected = load_assembly_reference()["tables"][VERIFY_POINT["name"]]
        compute_table(verify_config())
        self.last: Pipeline | None = None
        self.entries = [0, 0]

    def round(self, rng, tracer) -> list[Outcome]:
        tracer.run_id = "verify"
        t0 = perf_counter()
        try:
            with tracer.span("verify.pipeline"):
                result = verify_pipeline(tracer)
        except Exception as exc:
            return [Outcome("verify", perf_counter() - t0, False, repr(exc), raised=True)]
        seconds = perf_counter() - t0
        self.last = result
        ok, checked, worst = check_table(result.table, self.expected)
        self.entries[0] += ok
        self.entries[1] += checked
        problems = [
            f"rel_error {e:.3g} above {VERIFY_REL_ERROR_GATE}"
            for e in result.rel_errors
            if not e <= VERIFY_REL_ERROR_GATE
        ]
        problems.append(roots_mismatch(result.channels, self.roots))
        if ok < checked:
            problems.append(f"table entry off by {worst:.2e} relative")
        problems = [p for p in problems if p]
        detail = "; ".join(problems) or f"max rel_error {max(result.rel_errors):.4g}"
        return [Outcome("verify", seconds, not problems, detail)]

    def fill_facts(self, facts) -> None:
        facts.entries = self.entries
        facts.pipeline = self.last

    def report(self):
        return [("verify_rel_error_max", max(self.last.rel_errors), "ratio")] if self.last else []


class AssemblySweep(Workload):
    name = "assembly-sweep"
    round_seconds = 1.6
    layers = frozenset({"heat_coeffs"})

    def setup(self) -> None:
        # compute_table asks for omega_structures(D - 2), which is cached per
        # order: warm every order the grid uses, not only the largest.
        for order in range(1, max(reference.DIMS) - 1):
            omega_structures(order)
        ref = load_assembly_reference()
        self.points = [
            (p["name"], reference.make_config(p), ref["tables"][p["name"]])
            for p in reference.grid()
        ]
        self.entries = [0, 0]

    def round(self, rng, tracer) -> list[Outcome]:
        order = list(self.points)
        rng.shuffle(order)
        return [self.one(name, cfg, expected, tracer) for name, cfg, expected in order]

    def one(self, name, cfg, expected, tracer) -> Outcome:
        tracer.run_id = name
        t0 = perf_counter()
        try:
            with tracer.span("heat_coeffs.compute_table"):
                table = compute_table(cfg)
        except Exception as exc:
            return Outcome(name, perf_counter() - t0, False, repr(exc), raised=True)
        seconds = perf_counter() - t0
        ok, checked, worst = check_table(table, expected)
        self.entries[0] += ok
        self.entries[1] += checked
        return Outcome(name, seconds, ok == checked, f"worst relative error {worst:.2e}")

    def fill_facts(self, facts) -> None:
        facts.entries = self.entries


class CliReadme(Workload):
    name = "cli-readme"
    round_seconds = 2.9
    layers = frozenset({"cli"})
    in_process = False

    def setup(self) -> None:
        self.expected = json.loads(reference.CLI_FILE.read_text())
        self.peak = 0.0
        # first touch of the sources and byte-code, untimed, as for any user
        run_child(["-c", "import capheat.cli"])

    def round(self, rng, tracer) -> list[Outcome]:
        names = list(CLI_COMMANDS)
        rng.shuffle(names)
        return [self.invoke(name, tracer) for name in names]

    def invoke(self, name: str, tracer) -> Outcome:
        argv = CLI_COMMANDS[name]
        tracer.run_id = name
        with tracer.span(f"cli.{argv[0]}"):
            child = run_child(["-m", "capheat.cli", *argv])
        self.peak = max(self.peak, child.peak_rss_mb)
        problem = stdout_mismatch(child, self.expected[name])
        return Outcome(name, child.seconds, problem is None, problem or "",
                       raised=child.returncode != 0)

    def peak_rss_mb(self) -> float:
        return self.peak


WORKLOADS = {w.name: w for w in (VerifyCap, AssemblySweep, CliReadme)}


# --------------------------------------------------------------------------
# Layer probes and per-layer metrics
# --------------------------------------------------------------------------


@dataclass
class LayerFacts:
    """Values the per-layer metrics need besides span timings."""

    import_s: float = 0.0
    omega_cold_s: float = 0.0
    cumulant_coeffs: int = 0
    entries: list = field(default_factory=lambda: [0, 0])
    pipeline: Pipeline | None = None
    probe_outcomes: list = field(default_factory=list)


def probe_fixed(tracer, facts: LayerFacts) -> None:
    """Probes run on every workload: fresh-interpreter import and cold
    cumulant algebra, single Ferrers evaluations, one Dirichlet channel and
    2F1 at the angular factor's arguments."""
    facts.import_s = statistics.median(
        float(run_child(["-c", IMPORT_CHILD]).stdout) for _ in range(3)
    )
    seconds, count = run_child(["-c", OMEGA_COLD_CHILD]).stdout.split()
    facts.omega_cold_s, facts.cumulant_coeffs = float(seconds), int(count)
    x = math.cos(VERIFY_THETA0)
    for k in range(1, 17):
        with tracer.span("spectral_oracle.ferrers_p"):
            ferrers_p(0.5, 2.5 * k, x)
    with tracer.span("spectral_oracle.dirichlet_roots.probe"):
        dirichlet_roots(0.5, VERIFY_THETA0, VERIFY_OMEGA_MAX)
    for theta0 in reference.THETAS.values():
        angle = AngleParams.from_theta0(theta0)
        for two_s in range(1, max(reference.DIMS) + 1):
            s = 0.5 * two_s
            with tracer.span("special_eval.gauss_2f1"):
                gauss_2f1(0.5, s, s + 1.0, angle.sin2)


def probe_missing_layers(workload: Workload, tracer, facts: LayerFacts) -> None:
    """Exercise, once and with fixed inputs, each layer the workload does not
    call itself."""
    if "cli" not in workload.layers:
        cli = CliReadme()
        cli.setup()
        facts.probe_outcomes += [cli.invoke(name, tracer) for name in CLI_PROBE]
    if "heat_coeffs" not in workload.layers:
        sweep = AssemblySweep()
        sweep.setup()
        facts.probe_outcomes += [sweep.one(*point, tracer) for point in sweep.points]
        facts.entries = sweep.entries
    if "spectral_oracle" not in workload.layers:
        tracer.run_id = "oracle-probe"
        facts.pipeline = verify_pipeline(tracer, PROBE_OMEGA_MAX, PROBE_T)


PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.coeffs_s": "s",
    "cli.omega_s": "s",
    "cli.roots_s": "s",
    "legendre_asymptotics.omega_structures_cold_s": "s",
    "legendre_asymptotics.cumulant_coeffs": "count",
    "special_eval.c1_us": "us",
    "special_eval.f_total_us": "us",
    "special_eval.gauss_2f1_us": "us",
    "special_eval.calls": "count",
    "heat_coeffs.compute_table_ms": "ms",
    "heat_coeffs.compute_table_self_ms": "ms",
    "heat_coeffs.accurate_ratio": "ratio",
    "spectral_oracle.ferrers_p_ms": "ms",
    "spectral_oracle.dirichlet_roots_s": "s",
    "spectral_oracle.spectrum_s": "s",
    "spectral_oracle.spectrum_self_s": "s",
    "spectral_oracle.channels": "count",
    "spectral_oracle.roots": "count",
    "spectral_oracle.ms_per_root": "ms",
    "spectral_oracle.heat_trace_s": "s",
    "spectral_oracle.fit_asymptotics_s": "s",
    "spectral_oracle.max_tail_bound": "ratio",
    "spectral_oracle.fit_condition_number": "ratio",
    "spectral_oracle.fit_rel_error_max": "ratio",
}


def layer_metrics(tracer, facts: LayerFacts) -> dict[str, float]:
    """Per-layer values from the traced spans and ``facts``; per-call times
    are busy time over calls, except the CLI's per-command medians."""
    spans = tracer.summary()

    def mean(name, scale=1.0, key="total_s"):
        entry = spans[name]
        return entry[key] / entry["calls"] * scale

    def median(name):
        return statistics.median(s[2] - s[1] for s in tracer.spans if s[0] == name)

    pipeline = facts.pipeline
    roots = sum(len(ch.roots) for ch in pipeline.channels)
    special_calls = spans["special_eval.c1"]["calls"] + spans["special_eval.f_total"]["calls"]
    return {
        "cli.import_s": facts.import_s,
        "cli.coeffs_s": median("cli.coeffs"),
        "cli.omega_s": median("cli.omega"),
        "cli.roots_s": median("cli.roots"),
        "legendre_asymptotics.omega_structures_cold_s": facts.omega_cold_s,
        "legendre_asymptotics.cumulant_coeffs": facts.cumulant_coeffs,
        "special_eval.c1_us": mean("special_eval.c1", 1e6),
        "special_eval.f_total_us": mean("special_eval.f_total", 1e6),
        "special_eval.gauss_2f1_us": mean("special_eval.gauss_2f1", 1e6),
        "special_eval.calls": special_calls / spans["heat_coeffs.compute_table"]["calls"],
        "heat_coeffs.compute_table_ms": mean("heat_coeffs.compute_table", 1e3),
        "heat_coeffs.compute_table_self_ms": mean("heat_coeffs.compute_table", 1e3, "self_s"),
        "heat_coeffs.accurate_ratio": facts.entries[0] / facts.entries[1],
        "spectral_oracle.ferrers_p_ms": mean("spectral_oracle.ferrers_p", 1e3),
        "spectral_oracle.dirichlet_roots_s": mean("spectral_oracle.dirichlet_roots.probe"),
        "spectral_oracle.spectrum_s": mean("spectral_oracle.spectrum"),
        "spectral_oracle.spectrum_self_s": mean("spectral_oracle.spectrum", key="self_s"),
        "spectral_oracle.channels": len(pipeline.channels),
        "spectral_oracle.roots": roots,
        "spectral_oracle.ms_per_root": mean("spectral_oracle.spectrum", 1e3) / roots,
        "spectral_oracle.heat_trace_s": mean("spectral_oracle.heat_trace"),
        "spectral_oracle.fit_asymptotics_s": mean("spectral_oracle.fit_asymptotics"),
        "spectral_oracle.max_tail_bound": max(s.tail_bound for s in pipeline.samples),
        "spectral_oracle.fit_condition_number": pipeline.fit.condition_number,
        "spectral_oracle.fit_rel_error_max": max(pipeline.rel_errors),
    }
