"""Command-line front end: coefficient tables, cumulant-function tables,
eigenvalue listings and oracle verification, serialized as JSON, CSV or TeX.

Exit codes: 0 success, 2 flag/validation problems, 3 runtime numerical
failures (reported as a machine-readable error object on stdout).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .errors import NumericalError, ValidationError
from .heat_coeffs import (
    SphereBase,
    SuspensionConfig,
    UserBase,
    compute_table,
    table_to_dict,
)
from .legendre_asymptotics import omega as omega_functions
from .special_eval import DEFAULT_PRECISION, AngleParams, EvalPrecision
from .spectral_oracle import (
    default_omega_max,
    fit_asymptotics,
    heat_trace,
    dirichlet_roots,
)

TOL_ENV_VAR = "CAPHEAT_TOL"


def _precision_from(args) -> EvalPrecision:
    tol = getattr(args, "eval_tol", None)
    if tol is None:
        env = os.environ.get(TOL_ENV_VAR)
        tol = float(env) if env else None
    if tol is None:
        return DEFAULT_PRECISION
    return EvalPrecision(rel_tol=tol)


def _angle_from(args) -> AngleParams:
    theta0 = args.theta0
    if args.theta0_deg is not None:
        theta0 = math.radians(args.theta0_deg)
    if theta0 is None:
        raise ValidationError("one of --theta0 / --theta0-deg is required")
    return AngleParams.from_theta0(theta0)


def _base_from(args, d: int):
    if args.base_file:
        with open(args.base_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        coefficients = {int(k): float(v) for k, v in payload["coefficients"].items()}
        return UserBase(
            d=int(payload.get("d", d)),
            coefficients=coefficients,
            residue_at_minus_half=payload.get("residue_at_minus_half"),
        )
    if args.base != "sphere":
        raise ValidationError(f"unknown base {args.base!r}")
    return SphereBase(d)


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def cmd_coeffs(args) -> int:
    if args.max_n >= args.dim:
        raise ValidationError(
            f"--max-n must be below the total dimension: requested n_max="
            f"{args.max_n} with D={args.dim}, but coefficients are defined "
            f"only for n < D"
        )
    cfg = SuspensionConfig(
        D=args.dim,
        angle=_angle_from(args),
        base=_base_from(args, args.dim - 1),
        n_max=args.max_n,
        mass=args.mass,
    )
    table = compute_table(cfg, _precision_from(args))
    if args.format == "json":
        _emit_json(table_to_dict(table))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n_over_2", "script_A", "cal_A"])
        for entry in table.entries:
            writer.writerow([entry.n_over_2, repr(entry.script_A), repr(entry.cal_A)])
    return 0


def _omega_payload(order: int) -> dict:
    functions = []
    for i, om in enumerate(omega_functions(order), start=1):
        parts = []
        for j in sorted(om.terms):
            poly = om.part(j)
            coeffs = {str(e): str(c) for e, c in poly.monomials()}
            parts.append({"j": j, "coefficients": coeffs})
        functions.append({"i": i, "parts": parts})
    return {"max_order": order, "functions": functions}


def _omega_tex(order: int) -> str:
    lines = []
    for i, om in enumerate(omega_functions(order), start=1):
        pieces = []
        for j in sorted(om.terms):
            body = " + ".join(
                rf"\frac{{{c.numerator}}}{{{c.denominator}}} \nu^{{{e}}}"
                if e
                else rf"\frac{{{c.numerator}}}{{{c.denominator}}}"
                for e, c in om.part(j).monomials()
            )
            if j == 0:
                pieces.append(body)
            else:
                pieces.append(rf"\left(1+\gamma^2\right)^{{-{j}}}\left({body}\right)")
        lines.append(rf"\Omega_{{{i}}}(\nu) = " + " + ".join(pieces))
    return "\n".join(lines) + "\n"


def cmd_omega(args) -> int:
    if args.order < 1:
        raise ValidationError("--order must be positive")
    if args.format == "json":
        _emit_json(_omega_payload(args.order))
    else:
        sys.stdout.write(_omega_tex(args.order))
    return 0


def cmd_roots(args) -> int:
    angle = _angle_from(args)
    roots = dirichlet_roots(args.mu, angle.theta0, args.omega_max)
    if args.format == "json":
        _emit_json(
            {
                "mu": args.mu,
                "theta0": angle.theta0,
                "omega_max": args.omega_max,
                "roots": roots,
            }
        )
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["omega"])
        for r in roots:
            writer.writerow([repr(r)])
    return 0


def cmd_verify(args) -> int:
    if args.max_n >= args.dim:
        raise ValidationError(
            f"--max-n must be below the total dimension (n < D); got "
            f"n_max={args.max_n}, D={args.dim}"
        )
    if args.t_min <= 0 or args.t_max <= args.t_min:
        raise ValidationError("need 0 < --t-min < --t-max")
    angle = _angle_from(args)
    cfg = SuspensionConfig(
        D=args.dim,
        angle=angle,
        base=SphereBase(args.dim - 1),
        n_max=args.max_n,
    )
    omega_max = args.omega_max or default_omega_max(
        args.dim, args.t_min, args.tolerance
    )
    ts = [float(t) for t in np.geomspace(args.t_min, args.t_max, args.points)]
    samples = heat_trace(cfg, ts, tolerance=args.tolerance, omega_max=omega_max)
    n_fit = min(4, max(args.max_n + 2, 3))
    fit = fit_asymptotics(samples, args.dim, n_fit)
    table = compute_table(cfg, _precision_from(args))
    predicted = {e.n: e.cal_A for e in table.entries}

    comparison = []
    for n in range(args.max_n + 1):
        fitted = fit.coefficients[n]
        pred = predicted[n]
        denom = max(abs(pred), 1e-300)
        comparison.append(
            {
                "n_over_2": 0.5 * n,
                "fitted": fitted,
                "predicted": pred,
                "rel_error": abs(fitted - pred) / denom,
            }
        )

    if args.trace_csv:
        with open(args.trace_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "trace", "tail_bound"])
            for s in samples:
                writer.writerow([repr(s.t), repr(s.value), repr(s.tail_bound)])

    _emit_json(
        {
            "config": {
                "D": args.dim,
                "theta0": angle.theta0,
                "base": {"type": "sphere", "d": args.dim - 1},
                "omega_max": omega_max,
                "tolerance": args.tolerance,
                "points": args.points,
            },
            "fit_condition_number": fit.condition_number,
            "comparison": comparison,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capheat",
        description=(
            "Heat kernel coefficients for Dirichlet Laplacians on spherical "
            "suspensions, with an eigenvalue-based verification oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_angle_flags(p):
        p.add_argument("--theta0", type=float, help="opening angle in radians")
        p.add_argument(
            "--theta0-deg", type=float, default=None, help="opening angle in degrees"
        )

    p_coeffs = sub.add_parser("coeffs", help="compute a coefficient table")
    p_coeffs.add_argument("--dim", type=int, required=True, help="total dimension D")
    add_angle_flags(p_coeffs)
    p_coeffs.add_argument("--base", default="sphere", help="base manifold (sphere)")
    p_coeffs.add_argument(
        "--base-file", default=None, help="JSON file with user base coefficients"
    )
    p_coeffs.add_argument("--max-n", type=int, required=True, help="highest index n")
    p_coeffs.add_argument("--mass", type=float, default=0.0)
    p_coeffs.add_argument("--format", choices=["json", "csv"], default="json")
    p_coeffs.add_argument("--eval-tol", type=float, default=None)
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_omega = sub.add_parser("omega", help="print the cumulant-function tables")
    p_omega.add_argument("--order", type=int, required=True)
    p_omega.add_argument("--format", choices=["tex", "json"], default="json")
    p_omega.set_defaults(func=cmd_omega)

    p_roots = sub.add_parser("roots", help="Dirichlet eigenvalue roots of one channel")
    p_roots.add_argument("--mu", type=float, required=True)
    add_angle_flags(p_roots)
    p_roots.add_argument("--omega-max", type=float, required=True)
    p_roots.add_argument("--format", choices=["json", "csv"], default="json")
    p_roots.set_defaults(func=cmd_roots)

    p_verify = sub.add_parser(
        "verify", help="compare fitted trace coefficients against predictions"
    )
    p_verify.add_argument("--dim", type=int, required=True)
    add_angle_flags(p_verify)
    p_verify.add_argument("--max-n", type=int, required=True)
    p_verify.add_argument("--t-min", type=float, required=True)
    p_verify.add_argument("--t-max", type=float, required=True)
    p_verify.add_argument("--points", type=int, default=24)
    p_verify.add_argument("--tolerance", type=float, default=1e-6)
    p_verify.add_argument("--omega-max", type=float, default=None)
    p_verify.add_argument("--trace-csv", default=None, help="write samples CSV here")
    p_verify.add_argument("--eval-tol", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValidationError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NumericalError, OverflowError) as exc:
        _emit_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
