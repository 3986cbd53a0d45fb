"""Polynomial products the tests build fixtures from; `src/` never needs them."""

from salemforge.polys import ONE, mul


def mul_many(polys):
    out = ONE
    for p in polys:
        out = mul(out, p)
    return out


def pow_int(p, n):
    out = ONE
    base = p
    while n > 0:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out
