"""Command-line front end: coefficient tables, cumulant-function tables,
eigenvalue listings and oracle verification, serialized as JSON, CSV or TeX.

Exit codes: 0 success, 2 flag/validation problems, 3 runtime numerical
failures and every other package error (reported as a machine-readable error
object on stdout).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from itertools import groupby

# only the errors load with the module: each command imports the modules it
# runs, so a fresh omega loads the cumulant algebra alone and coeffs no oracle
from .errors import CapheatError, ValidationError, _finite, _positive

# each verify time sample is one pass over every root: 10,000 samples take
# 0.11 s of heat_trace over the README example's 1,777 roots, and that
# example with --points 10000 about 1.1 s in a fresh process (2-core Intel
# Xeon VM, Python 3.11.7)
_MAX_POINTS = 10_000


def _theta0_from(args) -> float:
    if args.theta0_deg is not None:
        return math.radians(args.theta0_deg)
    return args.theta0


def _unique_keys(pairs) -> dict:
    # json would keep a repeated key's last value
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValidationError(f"base file: key {key!r} repeated")
        out[key] = value
    return out


def _coefficient_index(key: str) -> int:
    # canonical only, so "01" or "+1" cannot overwrite the entry of "1"
    if key.isdecimal() and str(int(key)) == key:
        return int(key)
    raise ValidationError(
        f"base file: coefficient key {key!r} must be a nonnegative integer "
        "without sign, spaces or leading zeros"
    )


def _base_from(args, d: int):
    from .heat_coeffs import SphereBase, UserBase

    if args.base_file:
        with open(args.base_file, "r", encoding="utf-8") as fh:
            payload = json.load(fh, object_pairs_hook=_unique_keys)
        if not isinstance(payload, dict):
            raise ValidationError("base file must hold a JSON object")
        coefficients = payload.get("coefficients")
        if not isinstance(coefficients, dict):
            raise ValidationError('base file: "coefficients" must be an object')
        base_d = _finite(payload.get("d", d), "base file: d")
        if base_d != int(base_d):
            raise ValidationError(f"base file: d must be an integer, got {base_d!r}")
        return UserBase(
            d=int(base_d),
            coefficients={_coefficient_index(k): v for k, v in coefficients.items()},
            residue_at_minus_half=payload.get("residue_at_minus_half"),
        )
    return SphereBase(d)


def _config(args, make_base, mass):
    # make_base runs after the angle check, so a bad angle is reported first
    from .heat_coeffs import SuspensionConfig
    from .special_eval import AngleParams

    angle = AngleParams.from_theta0(_theta0_from(args))
    return SuspensionConfig(D=args.dim, angle=angle, base=make_base(args.dim - 1),
                            n_max=args.max_n, mass=mass)


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _write_csv(stream, header, rows) -> None:
    # csv writes a float as str, which is its repr
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def cmd_coeffs(args) -> int:
    from .heat_coeffs import compute_table, table_to_dict

    table = compute_table(_config(args, lambda d: _base_from(args, d), args.mass))
    if args.format == "json":
        _emit_json(table_to_dict(table))
    else:
        _write_csv(sys.stdout, ["n_over_2", "script_A", "cal_A"],
                   ([e.n_over_2, e.script_A, e.cal_A] for e in table.entries))
    return 0


def _omega_parts(order: int):
    """(i, [(j, [(e, c), ...]), ...]) per cumulant function: its nonzero
    (1 + gamma^2)^(-j) parts with their v^e coefficients, in ascending j and e."""
    from .legendre_asymptotics import omega as omega_functions

    for i, om in enumerate(omega_functions(order), start=1):
        parts = groupby(om.monomials(), key=lambda m: m[0][0])
        yield i, [(j, [(e, c) for (_, e), c in group]) for j, group in parts]


def _omega_payload(order: int) -> dict:
    functions = [
        {
            "i": i,
            "parts": [
                {"j": j, "coefficients": {str(e): str(c) for e, c in monos}}
                for j, monos in parts
            ],
        }
        for i, parts in _omega_parts(order)
    ]
    return {"max_order": order, "functions": functions}


def _omega_tex(order: int) -> str:
    lines = []
    for i, parts in _omega_parts(order):
        pieces = []
        for j, monos in parts:
            body = " + ".join(
                rf"\frac{{{c.numerator}}}{{{c.denominator}}} \nu^{{{e}}}"
                if e
                else rf"\frac{{{c.numerator}}}{{{c.denominator}}}"
                for e, c in monos
            )
            if j == 0:
                pieces.append(body)
            else:
                pieces.append(rf"\left(1+\gamma^2\right)^{{-{j}}}\left({body}\right)")
        lines.append(rf"\Omega_{{{i}}}(\nu) = " + " + ".join(pieces))
    return "\n".join(lines) + "\n"


def cmd_omega(args) -> int:
    if args.format == "json":
        _emit_json(_omega_payload(args.order))
    else:
        sys.stdout.write(_omega_tex(args.order))
    return 0


def cmd_roots(args) -> int:
    from .spectral_oracle import dirichlet_roots

    # dirichlet_roots validates the angle; AngleParams would load the assembly
    theta0 = _theta0_from(args)
    roots = dirichlet_roots(args.mu, theta0, args.omega_max)
    if args.format == "json":
        _emit_json(
            {
                "mu": args.mu,
                "theta0": theta0,
                "omega_max": args.omega_max,
                "roots": roots,
            }
        )
    else:
        _write_csv(sys.stdout, ["omega"], ([r] for r in roots))
    return 0


def cmd_verify(args) -> int:
    import numpy as np

    from .heat_coeffs import SphereBase, compute_table
    from .spectral_oracle import (
        _MAX_N_FIT,
        _check_fit_request,
        default_omega_max,
        fit_asymptotics,
        heat_trace,
    )

    if not _positive(args.t_min, "--t-min") < _positive(args.t_max, "--t-max"):
        raise ValidationError("--t-min must be below --t-max")
    if not 1 <= args.points <= _MAX_POINTS:
        raise ValidationError(f"--points must lie in 1..{_MAX_POINTS}")
    if args.max_n > _MAX_N_FIT:
        raise ValidationError(
            f"--max-n {args.max_n} is above the limit {_MAX_N_FIT} of the fit"
        )
    cfg = _config(args, SphereBase, 0.0)
    omega_max = args.omega_max
    if omega_max is None:
        omega_max = default_omega_max(args.dim, args.t_min, args.tolerance)
    ts = [float(t) for t in np.geomspace(args.t_min, args.t_max, args.points)]
    n_fit = min(_MAX_N_FIT, max(args.max_n + 2, 3))
    _check_fit_request(ts, n_fit)  # before the spectrum, which takes seconds
    samples = heat_trace(cfg, ts, tolerance=args.tolerance, omega_max=omega_max)
    fit = fit_asymptotics(samples, args.dim, n_fit)
    comparison = [
        {
            "n_over_2": entry.n_over_2,
            "fitted": fit.coefficients[entry.n],
            "predicted": entry.cal_A,
            "rel_error": abs(fit.coefficients[entry.n] - entry.cal_A)
            / max(abs(entry.cal_A), 1e-300),
        }
        for entry in compute_table(cfg).entries
    ]

    if args.trace_csv:
        with open(args.trace_csv, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, ["t", "trace", "tail_bound"],
                       ([s.t, s.value, s.tail_bound] for s in samples))

    _emit_json(
        {
            "config": {
                "D": args.dim,
                "theta0": cfg.angle.theta0,
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
        angle = p.add_mutually_exclusive_group(required=True)
        angle.add_argument("--theta0", type=float, help="opening angle in radians")
        angle.add_argument(
            "--theta0-deg", type=float, default=None, help="opening angle in degrees"
        )

    p_coeffs = sub.add_parser("coeffs", help="compute a coefficient table")
    p_coeffs.add_argument("--dim", type=int, required=True, help="total dimension D")
    add_angle_flags(p_coeffs)
    # no default, so that an explicit --base sphere conflicts too
    base = p_coeffs.add_mutually_exclusive_group()
    base.add_argument("--base", choices=["sphere"], help="base manifold (the default)")
    base.add_argument(
        "--base-file", default=None, help="JSON file with user base coefficients"
    )
    p_coeffs.add_argument("--max-n", type=int, required=True, help="highest index n")
    p_coeffs.add_argument("--mass", type=float, default=0.0)
    p_coeffs.add_argument("--format", choices=["json", "csv"], default="json")
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
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (CapheatError, OverflowError) as exc:
        _emit_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
