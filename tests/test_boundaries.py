"""Every refusal at the package's boundary, in one table.

Inputs are checked where they enter: the public constructors and functions,
and the CLI's base-file reader.  Code behind them trusts what they passed.
Each row is one refusal: the call, the exact error class it raises and,
where the CLI reaches the same check, the CLI arguments and the exit code
(2 for a validation problem, 3 for a numerical failure).
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
import json
import math
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import capheat
from capheat import (
    AngleParams,
    EigenvalueChannel,
    SphereBase,
    SuspensionConfig,
    UserBase,
    c1,
    compute_table,
    dirichlet_roots,
    ferrers_p,
    fit_asymptotics,
    gauss_2f1,
    heat_trace,
    log_coefficient,
    omega,
    spectrum,
    table_to_dict,
)
from capheat.cli import run
from capheat.errors import (
    IllConditioned,
    InsufficientBaseData,
    NumericalError,
    SlowConvergence,
    TailTooLarge,
    ValidationError,
)
from capheat.spectral_oracle import HeatTraceSample, default_omega_max

COEFFS = ["coeffs", "--dim", "3", "--theta0", "1", "--max-n", "2"]
ROOTS = ["roots", "--mu", "0.5", "--theta0", "1", "--omega-max", "5"]
VERIFY = ["verify", "--dim", "3", "--theta0", "1", "--max-n", "2",
          "--t-min", "1e-3", "--t-max", "1e-1"]
GOOD = {0: 1.0, 1: 0.0, 2: 0.1}
BIG = 10**400  # an int that no double holds


class BaseFile(str):
    """A base-file payload: the test writes it and passes its path."""


def base_file(payload: str) -> list:
    return [*COEFFS, "--base-file", BaseFile(payload)]


def flag(argv: list, name: str, value: str) -> list:
    """``argv`` with ``name`` set to ``value``."""
    out = list(argv)
    if name in out:
        out[out.index(name) + 1] = value
    else:
        out += [name, value]
    return out


def config(D=3, theta0=1.0, base=None, n_max=2, mass=0.0):
    return SuspensionConfig(D=D, angle=AngleParams(theta0),
                            base=base or SphereBase(D - 1), n_max=n_max, mass=mass)


def user(coefficients=GOOD, residue=None, d=2):
    return UserBase(d, coefficients, residue_at_minus_half=residue)


def hemisphere():
    return config(theta0=math.pi / 2)


def samples(ts):
    return [HeatTraceSample(float(t), 1.0, 0.0) for t in ts]


def channel_trace(mu=1.5, degeneracy=3, roots=(3.0,)):
    """The hemisphere's trace over one channel built from these fields."""
    return heat_trace(hemisphere(), [0.3], omega_max=15.0,
                      channels=[EigenvalueChannel(mu, degeneracy, roots)])


def row(call, error, argv=None, code=None, *, id, match=None):
    return pytest.param(call, error, argv, code, match, id=id)


REFUSALS = [
    # AngleParams
    row(lambda: AngleParams(0.0), ValidationError,
        flag(COEFFS, "--theta0", "0"), 2, id="angle-zero"),
    row(lambda: AngleParams(3.5), ValidationError,
        flag(COEFFS, "--theta0", "3.5"), 2, id="angle-above-pi"),
    row(lambda: AngleParams(math.nan), ValidationError,
        flag(COEFFS, "--theta0", "nan"), 2, id="angle-nan"),
    row(lambda: AngleParams("1"), ValidationError, id="angle-str"),
    row(lambda: AngleParams(None), ValidationError, id="angle-none"),
    # SphereBase
    row(lambda: SphereBase(1), ValidationError,
        flag(flag(COEFFS, "--dim", "2"), "--max-n", "1"), 2, id="sphere-d1"),
    row(lambda: SphereBase(2.5), ValidationError, id="sphere-d-float"),
    # UserBase: the dimension, the keys and the values
    row(lambda: user(d="2"), ValidationError,
        base_file('{"d": 2.5, "coefficients": {"0": 1, "1": 0, "2": 0.1}}'), 2,
        id="user-d-float"),
    row(lambda: user(d=2.0), ValidationError,
        base_file('{"d": 2.0, "coefficients": {"0": 1, "1": 0, "2": 0.1}}'), 2,
        id="user-d-integral-float"),
    row(lambda: UserBase(2, [1.0]), ValidationError, id="user-coefficients-list"),
    row(lambda: user(d=0), ValidationError,
        base_file('{"d": 0, "coefficients": {"0": 1}}'), 2, id="user-d0"),
    row(lambda: user({**GOOD, -1: 5.0}), ValidationError,
        base_file('{"coefficients": {"0": 1, "1": 0, "2": 0.1, "-1": 5}}'), 2,
        id="user-key-negative"),
    row(lambda: user({**GOOD, 1.5: 5.0}), ValidationError,
        base_file('{"coefficients": {"0": 1, "1": 0, "2": 0.1, "1.5": 5}}'), 2,
        id="user-key-float"),
    row(lambda: user({**GOOD, 0: math.nan}), ValidationError,
        base_file('{"coefficients": {"0": NaN, "1": 0, "2": 0.1}}'), 2,
        id="user-value-nan"),
    row(lambda: user({**GOOD, 0: math.inf}), ValidationError,
        base_file('{"coefficients": {"0": Infinity, "1": 0, "2": 0.1}}'), 2,
        id="user-value-inf"),
    row(lambda: user({**GOOD, 2: -math.inf}), ValidationError,
        base_file('{"coefficients": {"0": 1, "1": 0, "2": -Infinity}}'), 2,
        id="user-value-minus-inf"),
    row(lambda: user({**GOOD, 0: 10**400}), ValidationError,
        base_file('{"coefficients": {"0": 1%s, "1": 0, "2": 0.1}}' % ("0" * 400)),
        2, id="user-value-int-beyond-doubles"),
    row(lambda: user({**GOOD, 0: "1"}), ValidationError,
        base_file('{"coefficients": {"0": "1", "1": 0, "2": 0.1}}'), 2,
        id="user-value-str"),
    row(lambda: user({**GOOD, 0: True}), ValidationError,
        base_file('{"coefficients": {"0": true, "1": 0, "2": 0.1}}'), 2,
        id="user-value-bool"),
    row(lambda: user({**GOOD, 0: None}), ValidationError,
        base_file('{"coefficients": {"0": null, "1": 0, "2": 0.1}}'), 2,
        id="user-value-none"),
    row(lambda: user(residue=math.nan), ValidationError,
        base_file('{"coefficients": {"0": 1, "1": 0, "2": 0.1}, '
                  '"residue_at_minus_half": NaN}'), 2, id="user-residue-nan"),
    row(lambda: user(residue=math.inf), ValidationError,
        base_file('{"coefficients": {"0": 1, "1": 0, "2": 0.1}, '
                  '"residue_at_minus_half": Infinity}'), 2, id="user-residue-inf"),
    row(lambda: user(residue="abc"), ValidationError,
        base_file('{"coefficients": {"0": 1, "1": 0, "2": 0.1}, '
                  '"residue_at_minus_half": "abc"}'), 2, id="user-residue-str"),
    row(lambda: user(residue=False), ValidationError,
        base_file('{"coefficients": {"0": 1, "1": 0, "2": 0.1}, '
                  '"residue_at_minus_half": false}'), 2, id="user-residue-bool"),
    # SuspensionConfig
    row(lambda: config(D=3.5, base=SphereBase(2)), ValidationError, id="D-float"),
    row(lambda: config(D=341), ValidationError,
        flag(COEFFS, "--dim", "341"), 2, id="D-above-limit"),
    row(lambda: config(base=SphereBase(3)), ValidationError,
        base_file('{"d": 3, "coefficients": {"0": 1, "1": 0, "2": 0.1}}'), 2,
        id="base-d-mismatch"),
    row(lambda: config(n_max=3), ValidationError,
        flag(COEFFS, "--max-n", "3"), 2, id="n_max-at-D"),
    row(lambda: config(n_max=-1), ValidationError,
        flag(COEFFS, "--max-n", "-1"), 2, id="n_max-negative"),
    row(lambda: config(n_max=2.0), ValidationError, id="n_max-float"),
    row(lambda: config(n_max=True), ValidationError, id="n_max-bool"),
    row(lambda: config(D=19, n_max=18), ValidationError,
        flag(flag(COEFFS, "--dim", "19"), "--max-n", "18"), 2,
        id="n_max-above-order-limit"),
    row(lambda: config(mass=-1.0), ValidationError,
        flag(COEFFS, "--mass", "-1"), 2, id="mass-negative"),
    row(lambda: config(mass=math.nan), ValidationError,
        flag(COEFFS, "--mass", "nan"), 2, id="mass-nan"),
    row(lambda: config(mass=math.inf), ValidationError,
        flag(COEFFS, "--mass", "inf"), 2, id="mass-inf"),
    row(lambda: config(mass="0"), ValidationError, id="mass-str"),
    row(lambda: config(mass=BIG), ValidationError, id="mass-int-beyond-doubles"),
    row(lambda: SuspensionConfig(D=1, angle=AngleParams(1.0), base=SphereBase(2),
                                 n_max=0), ValidationError, match="at least 2",
        id="D-1"),
    row(lambda: SuspensionConfig(D=0, angle=AngleParams(1.0), base=SphereBase(2),
                                 n_max=0), ValidationError, match="at least 2",
        id="D-0"),
    row(lambda: SuspensionConfig(D=3, angle=1.0, base=SphereBase(2), n_max=2),
        ValidationError, id="angle-not-angleparams"),
    row(lambda: SuspensionConfig(D=3, angle=AngleParams(1.0), base=None, n_max=2),
        ValidationError, id="base-none"),
    # compute_table, table_to_dict and log_coefficient
    row(lambda: compute_table(None), ValidationError, id="table-cfg-none"),
    row(lambda: table_to_dict(None), ValidationError, id="to-dict-table-none"),
    row(lambda: log_coefficient(None), ValidationError, id="log-base-none"),
    row(lambda: compute_table(config(base=user({0: 1.0}))), InsufficientBaseData,
        base_file('{"coefficients": {"0": 1}}'), 2, id="table-missing-coefficient"),
    row(lambda: compute_table(config(mass=1e200)), OverflowError,
        flag(COEFFS, "--mass", "1e200"), 3, id="table-non-finite"),
    # (-m^2)^k overflows a double where m^2 itself does not
    row(lambda: compute_table(config(D=6, n_max=5, mass=1e100)), OverflowError,
        ["coeffs", "--dim", "6", "--theta0", "1.0", "--max-n", "5",
         "--mass", "1e100"], 3, match="mass=1e\\+100", id="table-mass-power"),
    row(lambda: compute_table(config(D=12, theta0=1e-160, n_max=1)), OverflowError,
        ["coeffs", "--dim", "12", "--theta0", "1e-160", "--max-n", "1"], 3,
        id="table-sine-underflow"),
    row(lambda: compute_table(config(D=254, n_max=3)), NumericalError,
        ["coeffs", "--dim", "254", "--theta0", "1", "--max-n", "3"], 3,
        id="table-c1-cancelled"),
    # omega
    row(lambda: omega(0), ValidationError, ["omega", "--order", "0"], 2,
        id="omega-0"),
    row(lambda: omega(17), ValidationError, ["omega", "--order", "17"], 2,
        id="omega-above-limit"),
    row(lambda: omega("3"), ValidationError, id="omega-str"),
    row(lambda: omega(2.5), ValidationError, id="omega-float"),
    row(lambda: omega(2.0), ValidationError, id="omega-integral-float"),
    row(lambda: omega(True), ValidationError, id="omega-bool"),
    # c1 and gauss_2f1
    row(lambda: c1(AngleParams(1.0), 0.0), ValidationError, id="c1-two_s-zero"),
    row(lambda: c1(AngleParams(1.0), math.nan), ValidationError,
        id="c1-two_s-nan"),
    row(lambda: c1(AngleParams(1.0), math.inf), ValidationError,
        id="c1-two_s-inf"),
    row(lambda: c1(AngleParams(1.0), "3"), ValidationError, id="c1-two_s-str"),
    row(lambda: c1(1.0, 3.0), ValidationError, id="c1-angle-not-angleparams"),
    row(lambda: c1(AngleParams(1.0), BIG), ValidationError,
        id="c1-two_s-int-beyond-doubles"),
    row(lambda: gauss_2f1("1", 1, 1, 0.5), ValidationError, id="2f1-a-str"),
    row(lambda: gauss_2f1(1, 1, 2, "0.5"), ValidationError, id="2f1-x-str"),
    row(lambda: gauss_2f1(0.5, 1.0, 2.5, 1.5), ValidationError, id="2f1-x-above-1"),
    row(lambda: gauss_2f1(math.nan, 1.0, 2.5, 0.5), ValidationError,
        id="2f1-nan-parameter"),
    row(lambda: gauss_2f1(0.5, 1.0, -1.0, 0.5), ValidationError, id="2f1-c-pole"),
    row(lambda: gauss_2f1(0.5, 0.5, 1.0, 0.5), ValidationError,
        id="2f1-integer-c-a-b"),
    row(lambda: gauss_2f1(-60.0, 0.5, 1.5, 0.9), NumericalError,
        id="2f1-cancellation"),
    row(lambda: gauss_2f1(BIG, 1.0, 2.5, 0.5), ValidationError,
        id="2f1-a-int-beyond-doubles"),
    row(lambda: gauss_2f1(0.5, BIG, 2.5, 0.5), ValidationError,
        id="2f1-b-int-beyond-doubles"),
    row(lambda: gauss_2f1(0.5, 1.0, BIG, 0.5), ValidationError,
        id="2f1-c-int-beyond-doubles"),
    # Gamma(c - a) = Gamma(-199.25) underflows to 0, and Gamma(-175.5) to a
    # subnormal whose reciprocal is infinite
    row(lambda: gauss_2f1(200.0, 0.5, 0.75, 0.3), OverflowError,
        match="Gamma factors", id="2f1-gamma-zero"),
    row(lambda: gauss_2f1(176.25, -4.25, 0.75, 0.9), OverflowError,
        match="Gamma factors", id="2f1-gamma-subnormal"),
    # the connection formula's second term overflows (the value is 7.1e219)
    row(lambda: gauss_2f1(90.0, 82.0, 0.75, 0.9), OverflowError,
        match="overflows a double", id="2f1-value-overflow"),
    # ferrers_p
    row(lambda: ferrers_p(0.0, 1.0, 0.5), ValidationError, id="ferrers-mu-zero"),
    row(lambda: ferrers_p(0.5, 1.0, 1.0), ValidationError, id="ferrers-x-one"),
    row(lambda: ferrers_p(0.5, 1.0, -0.9), SlowConvergence, id="ferrers-near-pi"),
    row(lambda: ferrers_p("1", 1.0, 0.5), ValidationError, id="ferrers-mu-str"),
    row(lambda: ferrers_p(BIG, 1.0, 0.5), ValidationError,
        id="ferrers-mu-int-beyond-doubles"),
    row(lambda: ferrers_p(0.5, BIG, 0.5), ValidationError,
        id="ferrers-omega-int-beyond-doubles"),
    row(lambda: ferrers_p(0.5, 10_000.5, 0.5), ValidationError,
        id="ferrers-omega-above-limit", match="above the limit 10000"),
    row(lambda: ferrers_p(0.5, -10_000.5, -0.8), ValidationError,
        id="ferrers-negative-omega-above-limit", match="above the limit"),
    # dirichlet_roots
    row(lambda: dirichlet_roots(0.5, 2.3, 5.0), ValidationError,
        flag(ROOTS, "--theta0", "2.3"), 2, id="roots-theta0-above-guard"),
    row(lambda: dirichlet_roots(0.0, 1.0, 5.0), ValidationError,
        flag(ROOTS, "--mu", "0"), 2, id="roots-mu-zero"),
    row(lambda: dirichlet_roots(math.inf, 1.0, 5.0), ValidationError,
        flag(ROOTS, "--mu", "inf"), 2, id="roots-mu-inf"),
    row(lambda: dirichlet_roots(0.5, 1.0, 1001.0), ValidationError,
        flag(ROOTS, "--omega-max", "1001"), 2, id="roots-omega_max-above-limit"),
    row(lambda: dirichlet_roots(0.5, 1.0, math.nan), ValidationError,
        flag(ROOTS, "--omega-max", "nan"), 2, id="roots-omega_max-nan"),
    row(lambda: dirichlet_roots("1", 1.0, 5.0), ValidationError, id="roots-mu-str"),
    row(lambda: dirichlet_roots(BIG, 1.0, 5.0), ValidationError,
        id="roots-mu-int-beyond-doubles"),
    # spectrum
    row(lambda: spectrum(1, 1.0, 10.0), ValidationError, id="spectrum-d1"),
    row(lambda: spectrum(2.5, 1.0, 10.0), ValidationError, id="spectrum-d-float"),
    row(lambda: spectrum(2, 2.2, 300.0), ValidationError,
        flag(flag(VERIFY, "--theta0", "2.2"), "--omega-max", "300"), 2,
        id="spectrum-too-many-roots"),
    row(lambda: spectrum(2, "1", 5.0), ValidationError, id="spectrum-theta0-str"),
    row(lambda: spectrum(BIG, 1.0, 10.0), ValidationError,
        id="spectrum-d-int-beyond-doubles"),
    # default_omega_max
    row(lambda: default_omega_max(3, "1", 1e-6), ValidationError,
        id="omega_max-t_min-str"),
    row(lambda: default_omega_max("3", 1e-3, 1e-6), ValidationError,
        id="omega_max-big_d-str"),
    row(lambda: default_omega_max(3, BIG, 1e-6), ValidationError,
        id="omega_max-t_min-int-beyond-doubles"),
    row(lambda: default_omega_max(3, 1e-3, BIG), ValidationError,
        id="omega_max-tolerance-int-beyond-doubles"),
    # heat_trace
    row(lambda: heat_trace("cfg", [0.1], omega_max=10.0), ValidationError,
        id="trace-cfg-str"),
    row(lambda: heat_trace(config(), None, omega_max=10.0), ValidationError,
        id="trace-times-none"),
    row(lambda: heat_trace(config(), True, omega_max=10.0), ValidationError,
        id="trace-times-bool"),
    row(lambda: heat_trace(config(), [0.1], omega_max=10.0, channels=[1, 2]),
        ValidationError, id="trace-channels-ints"),
    row(lambda: heat_trace(hemisphere(), np.array(0.1), omega_max=15.0),
        ValidationError, match="t values", id="trace-times-0d-array"),
    row(lambda: heat_trace(hemisphere(), [0.3], omega_max=15.0, channels=np.array(
        EigenvalueChannel(1.5, 3, (3.0,)), dtype=object)),
        ValidationError, match="channels", id="trace-channels-0d-array"),
    row(lambda: heat_trace(config(), [0.1], omega_max="15",
                           channels=spectrum(2, 1.0, 15.0)),
        ValidationError, id="trace-omega_max-str-with-channels"),
    row(lambda: heat_trace(config(base=user()), [0.1], omega_max=15.0),
        ValidationError, id="trace-user-base"),
    row(lambda: heat_trace(hemisphere(), [], omega_max=15.0), ValidationError,
        id="trace-no-times", match="at least one t value"),
    row(lambda: heat_trace(hemisphere(), np.array([]), omega_max=15.0),
        ValidationError, id="trace-no-times-array", match="at least one t value"),
    row(lambda: heat_trace(hemisphere(), [0.3, 0.0], omega_max=15.0),
        ValidationError, flag(VERIFY, "--t-min", "0"), 2, id="trace-time-zero"),
    row(lambda: heat_trace(hemisphere(), [0.3], math.nan, omega_max=15.0),
        ValidationError, flag(VERIFY, "--tolerance", "nan"), 2,
        id="trace-tolerance-nan"),
    row(lambda: heat_trace(hemisphere(), ["0.3"], omega_max=15.0),
        ValidationError, id="trace-time-str"),
    row(lambda: heat_trace(hemisphere(), [0.3], "1", omega_max=15.0),
        ValidationError, id="trace-tolerance-str"),
    row(lambda: heat_trace(hemisphere(), [0.3, BIG], omega_max=15.0),
        ValidationError, id="trace-time-int-beyond-doubles"),
    row(lambda: heat_trace(hemisphere(), [0.3], BIG, omega_max=15.0),
        ValidationError, id="trace-tolerance-int-beyond-doubles"),
    row(lambda: heat_trace(hemisphere(), [1e-4], omega_max=12.0), TailTooLarge,
        ["verify", "--dim", "12", "--theta0", "1", "--max-n", "2",
         "--t-min", "100", "--t-max", "1000"], 3, id="trace-tail-too-large"),
    row(lambda: heat_trace(config(), [0.1], omega_max=1.0), TailTooLarge,
        flag(VERIFY, "--omega-max", "1"), 3, match="no eigenvalues",
        id="trace-no-eigenvalues"),
    # the scan step pi/(4 theta0) overflows a double: no roots
    row(lambda: heat_trace(config(theta0=5e-324), [0.1], omega_max=10.0),
        TailTooLarge, flag(VERIFY, "--theta0", "5e-324"), 3,
        match="no eigenvalues", id="trace-theta0-subnormal"),
    # given roots above the cutoff, which the tail bound takes for the
    # highest in their channels
    row(lambda: heat_trace(config(), [0.5], omega_max=5e-324,
                           channels=[EigenvalueChannel(1.5, 3, (2.2,))]),
        ValidationError, match="above omega_max",
        id="trace-root-above-subnormal-cutoff"),
    row(lambda: heat_trace(config(), [0.5], omega_max=2.0,
                           channels=[EigenvalueChannel(1.5, 3, (2.2, 50.0))]),
        ValidationError, match=r"root 2\.2 lies above omega_max 2\.0",
        id="trace-root-above-cutoff"),
    # given channels are read as the sphere's: each mu a sphere order
    # k + (d - 1)/2, and none twice, which would overstate a root count
    row(lambda: channel_trace(mu=1.0), ValidationError,
        match=r"channel orders must be distinct k \+ 0\.5",
        id="trace-channel-mu-not-a-sphere-order"),
    row(lambda: heat_trace(hemisphere(), [0.3], omega_max=15.0, channels=[
        EigenvalueChannel(1.5, 3, (3.0,)), EigenvalueChannel(1.5, 3, (4.0,))]),
        ValidationError, match=r"channel orders must be distinct k \+ 0\.5",
        id="trace-channel-mu-repeated"),
    # and each with the sphere's degeneracy, which the tail bound takes: at
    # degeneracy 1 the hemisphere's trace at t = 0.3 would read 0.521, not
    # 0.753, under the sphere's tail
    row(lambda: heat_trace(hemisphere(), [0.3], omega_max=15.0, channels=[
        EigenvalueChannel(ch.mu, 1, ch.roots)
        for ch in spectrum(2, math.pi / 2, 15.0)]),
        ValidationError, match="degeneracy 1 is not the sphere's 3",
        id="trace-channel-degeneracy-not-the-spheres"),
    # EigenvalueChannel, built for heat_trace
    row(lambda: channel_trace(mu=0.0), ValidationError, id="channel-mu-zero"),
    row(lambda: channel_trace(mu="x"), ValidationError, id="channel-mu-str"),
    row(lambda: channel_trace(degeneracy=-5), ValidationError,
        id="channel-degeneracy-negative"),
    row(lambda: channel_trace(degeneracy="x"), ValidationError,
        id="channel-degeneracy-str"),
    row(lambda: channel_trace(degeneracy=1.5), ValidationError,
        id="channel-degeneracy-float"),
    row(lambda: channel_trace(roots=3.0), ValidationError,
        id="channel-roots-number"),
    row(lambda: channel_trace(roots=np.array(3.0)), ValidationError,
        id="channel-roots-0d-array"),
    row(lambda: channel_trace(roots=("a",)), ValidationError, id="channel-root-str"),
    row(lambda: channel_trace(roots=(math.nan,)), ValidationError,
        id="channel-root-nan"),
    row(lambda: channel_trace(roots=(math.inf,)), ValidationError,
        id="channel-root-inf"),
    # fit_asymptotics
    row(lambda: fit_asymptotics(None, 3, 0), ValidationError,
        id="fit-samples-none"),
    row(lambda: fit_asymptotics([1, 2, 3], 3, 0), ValidationError,
        id="fit-samples-numbers"),
    row(lambda: fit_asymptotics(np.array(HeatTraceSample(0.1, 1.0, 0.0),
                                         dtype=object), 3, 1),
        ValidationError, match="samples", id="fit-samples-0d-array"),
    row(lambda: fit_asymptotics(samples(np.geomspace(1e-3, 1e-2, 20)), 3, 5),
        ValidationError, flag(VERIFY, "--max-n", "5"), 2, id="fit-n_fit-above-limit"),
    row(lambda: fit_asymptotics(samples(np.geomspace(1e-3, 1e-2, 5)), 3, 4),
        ValidationError, flag(VERIFY, "--points", "5"), 2, id="fit-too-few-samples"),
    row(lambda: fit_asymptotics(samples(np.linspace(1e-3, 2e-3, 20)), 3, 4),
        ValidationError, flag(VERIFY, "--t-max", "5e-3"), 2, id="fit-narrow-span"),
    row(lambda: fit_asymptotics(samples(np.concatenate(
        [np.full(12, 1e-3) * (1 + 1e-12 * np.arange(12)), [1e-2]])), 3, 4),
        IllConditioned, id="fit-ill-conditioned"),
    row(lambda: fit_asymptotics(samples(np.geomspace(1e-3, 1e-2, 20)), "3", 1),
        ValidationError, id="fit-big_d-str"),
    row(lambda: fit_asymptotics([], 3, 0), ValidationError, id="fit-no-samples",
        match="at least one t value"),
    row(lambda: fit_asymptotics(samples([0.0, *np.geomspace(1e-3, 1e-2, 5)]),
                                3, 1),
        ValidationError, id="fit-time-zero"),
    # refused before by the decade check alone, with its message
    row(lambda: fit_asymptotics(samples([-1e-3, *np.geomspace(1e-3, 1e-2, 5)]),
                                3, 1),
        ValidationError, match="positive", id="fit-time-negative"),
    row(lambda: fit_asymptotics(
        [*samples(np.geomspace(1e-3, 1e-2, 5)), HeatTraceSample(0.1, math.inf, 0.0)],
        3, 1), ValidationError, id="fit-value-inf"),
    row(lambda: fit_asymptotics(
        [*samples(np.geomspace(1e-3, 1e-2, 5)), HeatTraceSample(0.1, math.nan, 0.0)],
        3, 1), ValidationError, id="fit-value-nan"),
    row(lambda: fit_asymptotics(
        [*samples(np.geomspace(1e-3, 1e-2, 5)), HeatTraceSample(BIG, 1.0, 0.0)],
        3, 1), ValidationError, id="fit-time-int-beyond-doubles"),
    row(lambda: fit_asymptotics(
        [*samples(np.geomspace(1e-3, 1e-2, 5)), HeatTraceSample(0.1, BIG, 0.0)],
        3, 1), ValidationError, id="fit-value-int-beyond-doubles"),
    row(lambda: fit_asymptotics(samples(np.geomspace(1e-3, 1e-2, 20)), BIG, 1),
        ValidationError, id="fit-big_d-int-beyond-doubles"),
]


@pytest.mark.parametrize("call,error,argv,code,match", REFUSALS)
def test_refusal(capsys, tmp_path, call, error, argv, code, match):
    with pytest.raises(error, match=match) as caught:
        call()
    assert caught.type is error
    if argv is None:
        return
    path = tmp_path / "base.json"
    for arg in argv:
        if isinstance(arg, BaseFile):
            path.write_text(arg, encoding="utf-8")
    argv = [str(path) if isinstance(arg, BaseFile) else arg for arg in argv]
    assert run(argv) == code
    out = capsys.readouterr().out
    if code == 2:
        assert out == ""
    else:
        assert json.loads(out)["error"]["type"] == error.__name__


def test_scan_step_beyond_doubles_finds_no_roots(capsys):
    # below theta0 about 4.4e-309 the scan step pi/(4 theta0) overflows;
    # the first root lies near pi/theta0, far beyond any cutoff
    assert dirichlet_roots(2.5, 5e-324, 1000.0) == []
    assert spectrum(2, 5e-324, 10.0) == []
    assert run(["roots", "--mu", "2.5", "--theta0", "5e-324",
                "--omega-max", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["roots"] == []


@pytest.mark.parametrize("omega_max", [1e9, 1e154, 1e155, 1e300])
def test_cutoff_above_the_limit_is_refused_with_channels(omega_max):
    # given channels obey spectrum's cutoff limit: the tail bound walks the
    # sphere channels up to the cutoff, about 1e9 of them at 1e9
    with pytest.raises(ValidationError, match="is above the limit 1000"):
        heat_trace(config(), [0.5], omega_max=omega_max,
                   channels=[EigenvalueChannel(1.5, 3, (2.2,))])


# Extreme doubles: the smallest subnormal, a subnormal, tiny and moderate
# normals and a huge one
EDGES = (5e-324, 4e-309, 1e-300, 1e-9, 0.5, 2.2, 1e300)
SIGNED = (*EDGES, *(-e for e in EDGES))


def table_at(D, theta0, mass):
    return compute_table(config(D=D, theta0=theta0, n_max=D - 1, mass=mass))


def trace_of(root, t, omega_max, mass):
    return heat_trace(config(mass=mass), [t], omega_max=omega_max,
                      channels=[EigenvalueChannel(1.5, 3, (root,))])


def fit_at(t_min, value, big_d, n_fit):
    return fit_asymptotics([HeatTraceSample(t_min * 10.0 ** (k / 4), value, 0.0)
                            for k in range(13)], big_d, n_fit)


def edge_calls():
    """Calls of the public library with extreme doubles, as partials."""
    product = itertools.product
    for args in product(EDGES, EDGES, EDGES):
        yield partial(dirichlet_roots, *args)
    for args in product((2, 3, 140), EDGES, EDGES):
        yield partial(spectrum, *args)
    for args in product(EDGES, SIGNED, SIGNED):
        yield partial(ferrers_p, *args)
    # Gamma(c - a) and 1/Gamma(a) from -200.25 to 1e300, and values beyond
    # the doubles
    for args in product((5e-324, -0.5, 2.2, 90.0, 176.25, -200.25, 1e300),
                        (5e-324, 0.5, -4.25, 82.0, 1e300),
                        (5e-324, 0.75, 2.2, 1e300), (0.0, 0.5, 0.9, 1.0)):
        yield partial(gauss_2f1, *args)
    for args in product(EDGES, EDGES, (*EDGES, 1e9), (0.0, 1e300)):
        yield partial(trace_of, *args)
    for args in product(EDGES, SIGNED, (3, 340), (0, 1, 4)):
        yield partial(fit_at, *args)
    for args in product((3, 6), EDGES, (0.0, *EDGES)):
        yield partial(table_at, *args)


def numbers(value):
    """The floats of a result, through lists, tuples and dataclasses."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from numbers(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from numbers(getattr(value, field.name))


def test_extreme_doubles_give_finite_numbers_or_a_package_error():
    # every call returns finite numbers or refuses with one of the package's
    # errors or OverflowError: no NaN, no bare ValueError or
    # ZeroDivisionError from the math module
    escaped = []
    for call in edge_calls():
        try:
            result = call()
        except (ValidationError, NumericalError, OverflowError):
            continue
        except Exception as error:
            escaped.append((call, error))
        else:
            if not all(map(math.isfinite, numbers(result))):
                escaped.append((call, result))
    assert escaped == []


def test_user_base_stores_floats():
    base = UserBase(2, {np.int64(0): 1, 1: np.float32(0.5), 2: Fraction(5, 4)},
                    residue_at_minus_half=1)
    assert base.coefficients == {0: 1.0, 1: 0.5, 2: 1.25}
    assert all(type(k) is int and type(v) is float
               for k, v in base.coefficients.items())
    assert type(base.residue_at_minus_half) is float


def test_numpy_integers_compute_what_ints_do():
    # a numpy d once overflowed 2**d (an OverflowError for the whole table),
    # and a numpy D rounded sin(theta0)^(D - n) an ulp away
    def table(D, d, n_max):
        return json.dumps(table_to_dict(compute_table(SuspensionConfig(
            D=D, angle=AngleParams(1.0), base=SphereBase(d), n_max=n_max))))

    assert table(np.int64(71), np.int64(70), np.int64(3)) == table(71, 70, 3)

    # a numpy UserBase dimension once reached table_to_dict as is, and
    # json.dumps raised TypeError
    def user_table(d):
        return json.dumps(table_to_dict(compute_table(config(base=user(d=d)))))

    assert user_table(np.int64(2)) == user_table(2)


@pytest.mark.parametrize("number", [np.float32, Fraction])
def test_angle_and_mass_are_stored_as_doubles(number):
    # a float32 or Fraction angle or mass once reached table_to_dict as is,
    # and json.dumps raised TypeError
    def table(theta0, mass):
        return json.dumps(table_to_dict(compute_table(
            config(D=5, theta0=theta0, n_max=4, mass=mass))))

    assert table(number(1), number(1)) == table(1.0, 1.0)


def is_infinity(node: ast.expr) -> bool:
    """``node`` is ``inf`` or ``math.inf``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "inf" and getattr(node.value, "id", None) == "math"
    return isinstance(node, ast.Name) and node.id == "inf"


def number_rule_breaches(path: Path) -> list:
    """Each ``raise ValueError`` in ``path``, and outside errors.py each
    comparison with an infinity, as (line, what)."""
    breaches = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == "ValueError":
                breaches.append((node.lineno, "raise ValueError"))
        if (isinstance(node, ast.Compare) and path.name != "errors.py"
                and any(map(is_infinity, [node.left, *node.comparators]))):
            breaches.append((node.lineno, "comparison with an infinity"))
    return breaches


@pytest.mark.parametrize("path", sorted(Path(capheat.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_number_rule_lives_in_errors(path):
    # errors owns what a valid number is and refuses with ValidationError;
    # an entry converts through its helpers rather than comparing by hand
    assert number_rule_breaches(path) == []


# the functions outside errors.py that dispatch on a class: every other
# object an entry takes is checked by errors._instance
CLASS_DISPATCHES = {
    "cli": {"_base_from"},
    "heat_coeffs": {"base_coefficient", "log_coefficient", "_base_to_dict"},
    "spectral_oracle": {"heat_trace"},
}


def isinstance_callers(path: Path) -> set:
    """The names of the functions in ``path`` that call isinstance."""
    return {
        func.name
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
    }


@pytest.mark.parametrize("path", sorted(Path(capheat.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_object_rule_lives_in_errors(path):
    # a hand-written isinstance refusal elsewhere would say the rule twice
    if path.name != "errors.py":
        assert isinstance_callers(path) <= CLASS_DISPATCHES.get(path.stem, set())
