"""Every refusal at the package's boundary, in one table.

Inputs are checked where they enter: the public constructors and functions,
and the CLI's base-file reader.  Code behind them trusts what they passed.
Each row is one refusal: the call, the exact error class it raises and,
where the CLI reaches the same check, the CLI arguments and the exit code
(2 for a validation problem, 3 for a numerical failure).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from capheat import (
    AngleParams,
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


def row(call, error, argv=None, code=None, *, id):
    return pytest.param(call, error, argv, code, id=id)


REFUSALS = [
    # AngleParams
    row(lambda: AngleParams(0.0), ValueError,
        flag(COEFFS, "--theta0", "0"), 2, id="angle-zero"),
    row(lambda: AngleParams(3.5), ValueError,
        flag(COEFFS, "--theta0", "3.5"), 2, id="angle-above-pi"),
    row(lambda: AngleParams(math.nan), ValueError,
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
    row(lambda: SuspensionConfig(D=3, angle=1.0, base=SphereBase(2), n_max=2),
        ValidationError, id="angle-not-angleparams"),
    row(lambda: SuspensionConfig(D=3, angle=AngleParams(1.0), base=None, n_max=2),
        ValidationError, id="base-none"),
    # compute_table
    row(lambda: compute_table(config(base=user({0: 1.0}))), InsufficientBaseData,
        base_file('{"coefficients": {"0": 1}}'), 2, id="table-missing-coefficient"),
    row(lambda: compute_table(config(mass=1e200)), OverflowError,
        flag(COEFFS, "--mass", "1e200"), 3, id="table-non-finite"),
    row(lambda: compute_table(config(D=12, theta0=1e-160, n_max=1)), OverflowError,
        ["coeffs", "--dim", "12", "--theta0", "1e-160", "--max-n", "1"], 3,
        id="table-sine-underflow"),
    row(lambda: compute_table(config(D=254, n_max=3)), NumericalError,
        ["coeffs", "--dim", "254", "--theta0", "1", "--max-n", "3"], 3,
        id="table-c1-cancelled"),
    # omega
    row(lambda: omega(0), ValueError, ["omega", "--order", "0"], 2, id="omega-0"),
    row(lambda: omega(17), ValidationError, ["omega", "--order", "17"], 2,
        id="omega-above-limit"),
    # c1 and gauss_2f1
    row(lambda: c1(AngleParams(1.0), 0.0), ValueError, id="c1-two_s-zero"),
    row(lambda: gauss_2f1(0.5, 1.0, 2.5, 1.5), ValidationError, id="2f1-x-above-1"),
    row(lambda: gauss_2f1(math.nan, 1.0, 2.5, 0.5), ValidationError,
        id="2f1-nan-parameter"),
    row(lambda: gauss_2f1(0.5, 1.0, -1.0, 0.5), ValidationError, id="2f1-c-pole"),
    row(lambda: gauss_2f1(0.5, 0.5, 1.0, 0.5), ValidationError,
        id="2f1-integer-c-a-b"),
    row(lambda: gauss_2f1(-60.0, 0.5, 1.5, 0.9), NumericalError,
        id="2f1-cancellation"),
    # ferrers_p
    row(lambda: ferrers_p(0.0, 1.0, 0.5), ValidationError, id="ferrers-mu-zero"),
    row(lambda: ferrers_p(0.5, 1.0, 1.0), ValidationError, id="ferrers-x-one"),
    row(lambda: ferrers_p(0.5, 1.0, -0.9), SlowConvergence, id="ferrers-near-pi"),
    row(lambda: ferrers_p("1", 1.0, 0.5), ValidationError, id="ferrers-mu-str"),
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
    # spectrum
    row(lambda: spectrum(1, 1.0, 10.0), ValidationError, id="spectrum-d1"),
    row(lambda: spectrum(2.5, 1.0, 10.0), ValidationError, id="spectrum-d-float"),
    row(lambda: spectrum(2, 2.2, 300.0), ValidationError,
        flag(flag(VERIFY, "--theta0", "2.2"), "--omega-max", "300"), 2,
        id="spectrum-too-many-roots"),
    row(lambda: spectrum(2, "1", 5.0), ValidationError, id="spectrum-theta0-str"),
    # default_omega_max
    row(lambda: default_omega_max(3, "1", 1e-6), ValidationError,
        id="omega_max-t_min-str"),
    # heat_trace
    row(lambda: heat_trace(config(base=user()), [0.1], omega_max=15.0),
        ValidationError, id="trace-user-base"),
    row(lambda: heat_trace(hemisphere(), [], omega_max=15.0), ValidationError,
        id="trace-no-times"),
    row(lambda: heat_trace(hemisphere(), np.array([]), omega_max=15.0),
        ValidationError, id="trace-no-times-array"),
    row(lambda: heat_trace(hemisphere(), [0.3, 0.0], omega_max=15.0),
        ValidationError, flag(VERIFY, "--t-min", "0"), 2, id="trace-time-zero"),
    row(lambda: heat_trace(hemisphere(), [0.3], math.nan, omega_max=15.0),
        ValidationError, flag(VERIFY, "--tolerance", "nan"), 2,
        id="trace-tolerance-nan"),
    row(lambda: heat_trace(hemisphere(), ["0.3"], omega_max=15.0),
        ValidationError, id="trace-time-str"),
    row(lambda: heat_trace(hemisphere(), [0.3], "1", omega_max=15.0),
        ValidationError, id="trace-tolerance-str"),
    row(lambda: heat_trace(hemisphere(), [1e-4], omega_max=12.0), TailTooLarge,
        ["verify", "--dim", "12", "--theta0", "1", "--max-n", "2",
         "--t-min", "100", "--t-max", "1000"], 3, id="trace-tail-too-large"),
    # fit_asymptotics
    row(lambda: fit_asymptotics(samples(np.geomspace(1e-3, 1e-2, 20)), 3, 5),
        ValidationError, flag(VERIFY, "--max-n", "5"), 2, id="fit-n_fit-above-limit"),
    row(lambda: fit_asymptotics(samples(np.geomspace(1e-3, 1e-2, 5)), 3, 4),
        ValidationError, flag(VERIFY, "--points", "5"), 2, id="fit-too-few-samples"),
    row(lambda: fit_asymptotics(samples(np.linspace(1e-3, 2e-3, 20)), 3, 4),
        ValidationError, flag(VERIFY, "--t-max", "5e-3"), 2, id="fit-narrow-span"),
    row(lambda: fit_asymptotics(samples(np.concatenate(
        [np.full(12, 1e-3) * (1 + 1e-12 * np.arange(12)), [1e-2]])), 3, 4),
        IllConditioned, id="fit-ill-conditioned"),
]


@pytest.mark.parametrize("call,error,argv,code", REFUSALS)
def test_refusal(capsys, tmp_path, call, error, argv, code):
    with pytest.raises(error) as caught:
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
