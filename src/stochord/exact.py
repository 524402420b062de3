"""Exact-or-floating scalar helpers.

Probability masses flow through ``Scalar = Fraction | float``. Arithmetic
between two Fractions stays exact; any operation touching a float yields a
float (Python's numeric tower already enforces this). Decimal strings such
as "0.5106" parse to exact rationals so that decimal literals from the
source data are reproduced exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import InvalidSpec

Scalar = Union[Fraction, float]

INF = math.inf


def parse_scalar(value) -> Scalar:
    """Coerce a JSON-ish value to a Scalar.

    int and str (either "a/b" or a decimal literal) become exact Fractions;
    float stays float and marks every derived quantity as floating.
    """
    if isinstance(value, bool):
        raise InvalidSpec(f"not a numeric parameter: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidSpec(f"cannot parse scalar {value!r}") from exc
    raise InvalidSpec(f"cannot parse scalar {value!r}")


def is_exact(x: Scalar) -> bool:
    return isinstance(x, Fraction)


def scalar_to_json(x: Scalar):
    """Render a Scalar losslessly: Fractions as strings, floats as floats."""
    if isinstance(x, Fraction):
        return str(x)
    if x == INF:
        return "inf"
    return x


def format_scalar(x, digits: int = 6) -> str:
    """Human-readable rendering: small rationals verbatim, else shortened."""
    if x is None:
        return "unavailable"
    if isinstance(x, Fraction):
        if abs(x.numerator) < 10**6 and x.denominator < 10**6:
            return str(x)
        return f"{float(x):.{digits}g}"
    if x == INF:
        return "inf"
    return f"{x:.{digits}g}"


def scalar_pow(base: Scalar, exponent: Scalar) -> Scalar:
    """base**exponent, exact when the result is rational in rational inputs."""
    if isinstance(exponent, Fraction) and exponent.denominator == 1:
        if isinstance(base, Fraction):
            return base ** int(exponent)
        return float(base) ** int(exponent)
    return float(base) ** float(exponent)


def cross_sign(a: int, b: int, c: int, d: int) -> int:
    """Sign of a*d - c*b for nonnegative integers, i.e. of a/b - c/d.

    The leading 64 bits of each factor bound both products from below and
    above; the full products are formed only when those bounds overlap.
    """
    sa, sb = max(a.bit_length() - 64, 0), max(b.bit_length() - 64, 0)
    sc, sd = max(c.bit_length() - 64, 0), max(d.bit_length() - 64, 0)
    if sa or sb or sc or sd:
        ah, bh, ch, dh = a >> sa, b >> sb, c >> sc, d >> sd
        e_ad, e_cb = sa + sd, sc + sb
        shift = min(e_ad, e_cb)
        ad_lo = ah * dh << (e_ad - shift)
        ad_hi = (ah + (sa > 0)) * (dh + (sd > 0)) << (e_ad - shift)
        cb_lo = ch * bh << (e_cb - shift)
        cb_hi = (ch + (sc > 0)) * (bh + (sb > 0)) << (e_cb - shift)
        if ad_lo > cb_hi:
            return 1
        if ad_hi < cb_lo:
            return -1
    diff = a * d - c * b
    return (diff > 0) - (diff < 0)
