"""Lossless JSON/CSV serialization: decimal-string integers, p/q rationals."""

from __future__ import annotations

import math
from fractions import Fraction


def frac_to_str(x) -> str:
    x = Fraction(x)
    return ratio_to_str(x.numerator, x.denominator)


def ratio_to_str(num: int, den: int) -> str:
    """The reduced fraction num/den, den > 0, as "p/q" or "p"; one gcd, no Fraction."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return f"{num}/{den}" if den != 1 else str(num)


def str_to_frac(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def poly_to_strings(p) -> list:
    return [str(c) for c in p]


def strings_to_poly(ss) -> tuple:
    return tuple(int(s) for s in ss)


def interval_to_dict(interval) -> dict:
    return {"lo": frac_to_str(interval.lo), "hi": frac_to_str(interval.hi)}


def census_to_dict(census) -> dict:
    return {"inside": census.inside, "on": census.on, "outside": census.outside}
