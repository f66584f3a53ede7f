"""Frozen reference tables for the cumulant functions of orders 1..5, and
plain-Fraction references for the Bessel side of the expansion.

Layout: REFERENCE[i][j] maps exponent -> coefficient of v^exponent in the
(1 + gamma^2)^(-j) part of the order-i function (j = 0 is the gamma-free
part).  These literals are regression fixtures; the generator must reproduce
them by exact rational equality.

``u_polynomial`` and ``bessel_d_polynomial`` return coefficient tuples
(entry e multiplies x^e, trailing zeros trimmed) built with nothing but
``Fraction`` lists, independent of the package's polynomial ring.
"""

from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache


def trim(coeffs) -> tuple[F, ...]:
    out = [F(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def polyadd(p, q) -> tuple[F, ...]:
    n = max(len(p), len(q))
    return trim(
        (p[e] if e < len(p) else 0) + (q[e] if e < len(q) else 0) for e in range(n)
    )


def polymul(p, q) -> tuple[F, ...]:
    out = [F(0)] * (len(p) + len(q))
    for a, x in enumerate(p):
        for b, y in enumerate(q):
            out[a + b] += x * y
    return trim(out)


@lru_cache(maxsize=None)
def u_polynomial(k: int) -> tuple[F, ...]:
    """Olver's Bessel expansion polynomial u_k, degree 3k.

    u_0 = 1 and
    u_{k+1}(x) = x^2 (1 - x^2) u_k'(x) / 2 + (1/8) int_0^x (1 - 5 t^2) u_k(t) dt.
    """
    if k == 0:
        return (F(1),)
    u = u_polynomial(k - 1)
    derivative = [e * c for e, c in enumerate(u)][1:]
    term1 = polymul((0, 0, F(1, 2), 0, F(-1, 2)), derivative)
    weighted = polymul((1, 0, -5), u)
    term2 = [F(0)] + [c / (8 * (e + 1)) for e, c in enumerate(weighted)]
    return polyadd(term1, term2)


@lru_cache(maxsize=None)
def bessel_d_polynomial(i: int) -> tuple[F, ...]:
    """Cumulant D_i of the u_k: log(1 + sum u_k / v^k) = sum D_i / v^i,
    from D_m = u_m - sum_{k<m} (k/m) D_k u_{m-k}."""
    d = u_polynomial(i)
    for k in range(1, i):
        term = polymul(bessel_d_polynomial(k), u_polynomial(i - k))
        d = polyadd(d, polymul((F(-k, i),), term))
    return d


REFERENCE: dict[int, dict[int, dict[int, F]]] = {
    1: {
        0: {1: F(1, 8), 3: F(-5, 24)},
        1: {0: F(1, 24), 1: F(-1, 4), 3: F(5, 24)},
    },
    2: {
        0: {2: F(1, 16), 4: F(-3, 8), 6: F(5, 16)},
        1: {0: F(1, 16), 2: F(-9, 16), 4: F(9, 8), 6: F(-5, 8)},
        2: {0: F(-1, 8), 2: F(9, 16), 4: F(-3, 4), 6: F(5, 16)},
    },
    3: {
        0: {3: F(25, 384), 5: F(-531, 640), 7: F(221, 128), 9: F(-1105, 1152)},
        1: {
            1: F(9, 128),
            3: F(-71, 48),
            5: F(87, 16),
            7: F(-221, 32),
            9: F(1105, 384),
        },
        2: {
            0: F(7, 960),
            1: F(-19, 32),
            3: F(259, 64),
            5: F(-2949, 320),
            7: F(1105, 128),
            9: F(-1105, 384),
        },
        3: {
            0: F(-7, 720),
            1: F(19, 32),
            3: F(-259, 96),
            5: F(2949, 640),
            7: F(-221, 64),
            9: F(1105, 1152),
        },
    },
    4: {
        0: {
            4: F(13, 128),
            6: F(-71, 32),
            8: F(531, 64),
            10: F(-339, 32),
            12: F(565, 128),
        },
        1: {
            2: F(9, 64),
            4: F(-297, 64),
            6: F(1709, 64),
            8: F(-3681, 64),
            10: F(1695, 32),
            12: F(-565, 32),
        },
        2: {
            0: F(5, 128),
            2: F(-171, 64),
            4: F(3207, 128),
            6: F(-677, 8),
            8: F(2097, 16),
            10: F(-3051, 32),
            12: F(1695, 64),
        },
        3: {
            0: F(-5, 16),
            2: F(459, 64),
            4: F(-2613, 64),
            6: F(6415, 64),
            8: F(-7857, 64),
            10: F(2373, 32),
            12: F(-565, 32),
        },
        4: {
            0: F(5, 16),
            2: F(-153, 32),
            4: F(2613, 128),
            6: F(-1283, 32),
            8: F(2619, 64),
            10: F(-339, 16),
            12: F(565, 128),
        },
    },
    5: {
        0: {
            5: F(1073, 5120),
            7: F(-50049, 7168),
            9: F(186821, 4608),
            11: F(-44899, 512),
            13: F(82825, 1024),
            15: F(-82825, 3072),
        },
        1: {
            3: F(183, 512),
            5: F(-8613, 512),
            7: F(141923, 1024),
            9: F(-170509, 384),
            11: F(86067, 128),
            13: F(-248475, 512),
            15: F(414125, 3072),
        },
        2: {
            1: F(153, 1024),
            3: F(-38503, 3072),
            5: F(158319, 1024),
            7: F(-733859, 1024),
            9: F(2476075, 1536),
            11: F(-972981, 512),
            13: F(579775, 512),
            15: F(-414125, 1536),
        },
        3: {
            0: F(31, 8064),
            1: F(-1415, 512),
            3: F(65569, 1024),
            5: F(-116327, 256),
            7: F(10693979, 7168),
            9: F(-6031529, 2304),
            11: F(1302325, 512),
            13: F(-82825, 64),
            15: F(414125, 1536),
        },
        4: {
            0: F(-31, 2016),
            1: F(1893, 256),
            3: F(-39551, 384),
            5: F(539643, 1024),
            7: F(-9750567, 7168),
            9: F(1136471, 576),
            11: F(-209571, 128),
            13: F(745425, 1024),
            15: F(-414125, 3072),
        },
        5: {
            0: F(31, 2520),
            1: F(-631, 128),
            3: F(39551, 768),
            5: F(-539643, 2560),
            7: F(3250189, 7168),
            9: F(-162353, 288),
            11: F(209571, 512),
            13: F(-82825, 512),
            15: F(82825, 3072),
        },
    },
}
