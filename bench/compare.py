"""Compare two sets of benchmark results metric by metric.

    python3 bench/compare.py BASE_DIR HEAD_DIR

Each directory holds result records written by run.py (``.bench_out/`` of a
checkout, copied aside).  For every workload and end-to-end metric it prints
both medians, the change and whether the change stays within the bound of
BENCHMARK.json.  Results whose mpmath backends differ are not comparable,
because the backend sets the cost of every oracle evaluation: the script
refuses them with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def load(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace0.json"))]
    if not records:
        raise SystemExit(f"error: no end-to-end results in {directory}")
    return records


def medians(records: list[dict]) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = {}
    for r in records:
        for name, metric in r["result"]["metrics"].items():
            values.setdefault((r["workload"], name), []).append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, head = (load(Path(a)) for a in argv)
    backends = {r["fingerprint"]["mpmath_backend"] for r in base + head}
    if len(backends) > 1:
        sys.stderr.write(f"error: refusing to compare runs on different mpmath backends: {sorted(backends)}\n")
        return 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base_m, head_m = medians(base), medians(head)
    worse = 0
    print(f"{'workload':<16} {'metric':<18} {'base':>12} {'head':>12} {'change':>8}  verdict")
    for key in sorted(base_m.keys() & head_m.keys()):
        bound, better = bounds[key[1]]
        change = (head_m[key] - base_m[key]) / base_m[key]
        regress = change > bound if better == "lower" else -change > bound
        worse += regress
        verdict = f"WORSE beyond {bound:.0%}" if regress else "within bound"
        print(f"{key[0]:<16} {key[1]:<18} {base_m[key]:>12.6g} {head_m[key]:>12.6g} {change:>+8.1%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
