"""Regenerate reference.json, the committed verdicts the checker compares to.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a verdict is meant to change.  It records, for the
default seed's inputs: the census of every sampled structure-sweep orbit, a
30-digit decimal bracket of every dominant root the benchmark checks, the
SHA-256 of the sorted-key verify_realization JSON, the enumerated level
tuples, and the census and label of every classify-cache key.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import check
import workloads
from salemforge.algebraic import refine
from salemforge.census import unit_circle_census
from salemforge.jonquieres import OrbitData, auxiliary_polynomial
from salemforge.realization import verify_realization
from salemforge.spectrum import SpectrumKey, classify_entry, dynamical_degree, enumerate_level_prefix

DIGITS = 30


def bracket(key):
    """A decimal interval [lo, hi] of DIGITS places that holds the root."""
    tight = refine(dynamical_degree(key), Fraction(1, 10 ** (DIGITS + 2)))
    scale = 10**DIGITS
    lo = Fraction(math.floor(tight.interval.lo * scale), scale)
    hi = Fraction(math.ceil(tight.interval.hi * scale), scale)
    return [_decimal(lo), _decimal(hi)]


def _decimal(x):
    whole, frac = divmod(x.numerator * 10**DIGITS // x.denominator, 10**DIGITS)
    return f"{whole}.{str(frac).zfill(DIGITS)}"


def main():
    seed = workloads.DEFAULT_SEED
    ref = {"sweep": {}, "classify": {}, "levels": {}}
    for d, tup in workloads.sweep_sample():
        c = unit_circle_census(auxiliary_polynomial(OrbitData(d, tup)))
        ref["sweep"][check.key_id(d, tup)] = {
            "census": [c.inside, c.on, c.outside],
            "lambda": bracket(SpectrumKey(d, tup)),
        }
    realize = workloads.make_inputs("realize", seed)
    report = verify_realization(SpectrumKey(realize["d"], realize["tuple"]))
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    ref["realize_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    for prefix in workloads.LEVEL_PREFIXES:
        entries = enumerate_level_prefix(*prefix)
        ref["levels"][",".join(map(str, prefix))] = [list(e.key.tuple) for e in entries]
    for d, tup in workloads.make_inputs("classify-cache", seed)["keys"]:
        entry = classify_entry(SpectrumKey(d, tup))
        c = entry.census
        ref["classify"][check.key_id(d, tup)] = {
            "census": f"{c.inside};{c.on};{c.outside}",
            "label": entry.label,
            "lambda": bracket(entry.key),
        }
    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
