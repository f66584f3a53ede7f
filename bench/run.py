"""capheat benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload verify-cap --seed 1 --seconds 20 --trace 0

The checkout is the parent of this file's directory; the package is imported
from its ``src`` and nowhere else, so the run fails (exit 2, no result) when
the sources are missing.  Stdout is a human-readable report followed by one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, in
seconds at a reference machine speed (speed.py), with ``--trace 1`` the
per-layer ones.  A full record, with the environment
fingerprint and, for a traced run, every span, is written to
``.bench_out/`` in the checkout.  See NOTES.md for what each number means.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Names under which NOTES.md discusses each workload's headline metrics.
ALIASES = {
    "verify-cap": {"latency_p50_s": "verify_s"},
    "assembly-sweep": {"throughput_per_s": "tables_per_s"},
    "cli-readme": {"latency_p50_s": "cli_p50_s", "latency_tail_s": "cli_tail_s"},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-cap", "assembly-sweep", "cli-readme"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fingerprint() -> dict:
    """Where a result came from.  ``src_lines`` is metadata, not gated."""
    import mpmath
    import numpy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
    }


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples above it
    (the maximum when there are too few samples), and its label."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n}"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of {n}, {TAIL_BEYOND} beyond"


def measure_setup(workload: str, repeats: int) -> list[float]:
    """Set-up time of the workload in ``repeats`` fresh interpreters."""
    import workloads

    samples = []
    for _ in range(repeats):
        child = workloads.run_child(
            [str(BENCH / "run.py"), "--workload", workload, "--setup-only"]
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed: {child.stderr.decode(errors='replace')}")
        samples.append(float(child.stdout))
    return samples


def timed_setup(name: str):
    """The workload, set up from its first package import, and the seconds
    that took."""
    t0 = perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]()
    workload.setup()
    return workload, perf_counter() - t0


def run_rounds(workload, rng, rounds: int, tracer, after_round=lambda: None) -> list:
    outcomes = []
    for _ in range(rounds):
        outcomes += workload.round(rng, tracer)
        after_round()
    return outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "capheat" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package sources at {SRC / 'capheat'}\n")
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    if args.setup_only:
        print(timed_setup(args.workload)[1])
        return 0

    if not compileall.compile_dir(SRC, quiet=1):
        sys.stderr.write("error: the package sources do not compile\n")
        return 2
    workload, seconds = timed_setup(args.workload)
    setup_samples = [seconds] + measure_setup(args.workload, SETUP_REPEATS - 1)
    import speed
    import tracing
    import workloads

    rng = random.Random(args.seed)
    rounds = max(1, round(args.seconds / workload.round_seconds))

    spans = {}
    speedometer = None
    if args.trace == 0:
        speedometer = speed.Speedometer(workload.round_seconds, not workload.in_process)
        speedometer.sample()
        outcomes = run_rounds(workload, rng, rounds, tracing.NullTracer(), speedometer.sample)
        probes = []
        # Times at the reference speed (speed.py).
        scale = speedometer.scale()
        latencies = [o.seconds * scale for o in outcomes]
        tail_value, tail_label = tail(latencies)
        values = {
            "setup_s": statistics.median(setup_samples) * scale,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_value,
            "throughput_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        units = END_TO_END_UNITS
        wall = [o.seconds for o in outcomes]
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups, each in a fresh interpreter; "
                       f"wall {statistics.median(setup_samples):.6g}",
            "latency_p50_s": f"wall {statistics.median(wall):.6g}",
            "latency_tail_s": f"{tail_label}; wall {tail(wall)[0]:.6g}",
            "throughput_per_s": f"wall {len(wall) / sum(wall):.6g}",
        }
    else:
        # A quarter of the rounds untraced, the rest traced: the difference
        # between their median latencies is the tracing overhead.
        untraced_rounds = max(1, rounds // 4)
        untraced = run_rounds(workload, rng, untraced_rounds, tracing.NullTracer())
        tracer = tracing.Tracer()
        facts = workloads.LayerFacts()
        with tracer.patched(workloads.BOUNDARIES):
            traced = run_rounds(workload, rng, max(1, rounds - untraced_rounds), tracer)
            workload.fill_facts(facts)
            workloads.probe_missing_layers(workload, tracer, facts)
            workloads.probe_fixed(tracer, facts)
        outcomes = untraced + traced
        probes = facts.probe_outcomes
        values = workloads.layer_metrics(tracer, facts)
        base = statistics.median(o.seconds for o in untraced)
        values["trace.overhead_pct"] = (
            100.0 * (statistics.median(o.seconds for o in traced) - base) / base
        )
        units = {**workloads.PER_LAYER_UNITS, "trace.overhead_pct": "%"}
        notes = {"trace.overhead_pct": f"{len(traced)} traced vs {len(untraced)} untraced operations"}
        spans = tracer.summary()

    failures = [o for o in outcomes if not o.ok]
    tolerated = workloads.load_assembly_reference()["known_defects"]
    correct = all(o.ok or (o.name in tolerated and not o.raised) for o in outcomes + probes)
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    env = fingerprint()
    OUT.mkdir(exist_ok=True)
    if spans:
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    failing = {o.name: o.detail for o in failures + [p for p in probes if not p.ok]}
    latencies_by_name: dict[str, list[float]] = {}
    for o in outcomes:
        latencies_by_name.setdefault(o.name, []).append(o.seconds)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "fingerprint": env,
        "setup_samples": setup_samples, "latencies": latencies_by_name,
        "speed_chunks": speedometer.groups if speedometer else [],
        "failing": failing, "spans": spans, "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"capheat benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={rounds}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"operations: {len(outcomes)} attempted, {len(failures)} failed, "
          f"failed_ratio {len(failures) / len(outcomes):.4f}, correct={correct}")
    if speedometer:
        chunks = [c for g in speedometer.groups for c in g]
        where = "fresh interpreters" if speedometer.fresh_interpreter else "this process"
        print(f"speed: times are seconds at the reference speed, scaled by {scale:.4f} from "
              f"{len(chunks)} chunks of the reference loop in {where} (mean "
              f"{statistics.fmean(chunks):.4g} s, reference {speed.REFERENCE_S} s)")
    aliases = ALIASES[args.workload] if args.trace == 0 else {}
    for name, unit in units.items():
        extra = [aliases.get(name), notes.get(name)]
        suffix = "; ".join(e for e in extra if e)
        print(f"  {name:<46} {values[name]:<14.6g} {unit:<6} {suffix}")
    for name, value, unit in workload.report():
        print(f"  {name:<46} {value:<14.6g} {unit}")
    if spans:
        print(f"  {'span':<46} {'calls':>8} {'total_s':>12} {'self_s':>12}")
        for name, s in sorted(spans.items()):
            print(f"  {name:<46} {s['calls']:>8} {s['total_s']:>12.6g} {s['self_s']:>12.6g}")
    recorded = sorted(name for name in failing if name in tolerated)
    if recorded:
        print(f"failing, recorded as defects of the benchmarked commit ({len(recorded)}):")
        print(textwrap.fill(", ".join(recorded), initial_indent="  ", subsequent_indent="  "))
    for name in sorted(set(failing) - set(recorded)):
        print(f"FAILED {name}: {failing[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
