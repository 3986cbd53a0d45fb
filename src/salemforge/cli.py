"""Batch command line: JSON (default) or CSV on stdout.

Exit codes: 0 success, 2 invalid parameters (argparse's own convention),
1 internal contradiction such as a failed census sanity check.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import matrices
from .algebraic import compare
from .cache import default_store
from .census import unit_circle_census
from .errors import SalemforgeError, StructureViolation, CensusContradiction
from .jonquieres import OrbitData, auxiliary_polynomial, basis_labels, jonquieres_matrix
from .realization import verify_realization
from .serialize import census_to_dict, frac_to_str, interval_to_dict, poly_to_strings
from .spectrum import (
    SpectrumEntry,
    SpectrumKey,
    classify_entry,
    dynamical_degree,
    enumerate_level_prefix,
)
from .weyl import is_weyl_member


def _parse_tuple(text: str) -> tuple:
    text = (text or "").strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"tuple must be comma-separated integers: {exc}")


def _parse_width(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            width = Fraction(int(num), int(den))
        else:
            width = Fraction(text)
        if width <= 0:
            raise ValueError("width must be positive")
        if width < Fraction(1, 10**4000):  # finer widths print numbers past int's 4300-digit str limit
            raise ValueError("width must be at least 1e-4000")
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad width {text!r}: {exc}")
    return width


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _entry_row(entry: SpectrumEntry) -> dict:
    return {
        "d": str(entry.key.d),
        "tuple": ",".join(str(n) for n in entry.key.tuple),
        "interval_lo": frac_to_str(entry.value.interval.lo),
        "interval_hi": frac_to_str(entry.value.interval.hi),
        "census": "{inside};{on};{outside}".format(**census_to_dict(entry.census)),
        "label": entry.label,
    }


def emit_table(entries, fmt: str) -> str:
    """Deterministic column order: d, tuple, lo, hi, census, label.

    Rows are emitted in exact value order.
    """
    entries = sorted(entries, key=functools.cmp_to_key(lambda a, b: compare(a.value, b.value)))
    rows = [_entry_row(e) for e in entries]
    if fmt == "csv":
        header = "d,tuple,interval_lo,interval_hi,census,label"
        body = [
            ",".join((r["d"], f"\"{r['tuple']}\"", r["interval_lo"], r["interval_hi"], r["census"], r["label"]))
            for r in rows
        ]
        return "\n".join([header] + body) + "\n"
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def cmd_poly(args) -> int:
    o = OrbitData(args.d, args.tuple)
    _emit({"coeffs": poly_to_strings(auxiliary_polynomial(o))})
    return 0


def cmd_matrix(args) -> int:
    o = OrbitData(args.d, args.tuple)
    _emit(matrices.to_json_dict(jonquieres_matrix(o), basis_labels(o)))
    return 0


def cmd_charpoly(args) -> int:
    o = OrbitData(args.d, args.tuple)
    _emit({"coeffs": poly_to_strings(matrices.char_poly(jonquieres_matrix(o)))})
    return 0


def cmd_lambda(args) -> int:
    key = SpectrumKey(args.d, args.tuple)
    value = dynamical_degree(key, args.width)
    digits = max(1, len(str(args.width.denominator)) - 1)
    _emit(
        {
            "d": str(args.d),
            "tuple": [str(n) for n in args.tuple],
            "poly": poly_to_strings(value.defining),
            "interval": interval_to_dict(value.interval),
            "decimal": value.decimal(digits),
        }
    )
    return 0


def cmd_census(args) -> int:
    o = OrbitData(args.d, args.tuple)
    c = unit_circle_census(auxiliary_polynomial(o))
    _emit({k: str(v) for k, v in census_to_dict(c).items()})
    return 0


def cmd_classify(args) -> int:
    key = SpectrumKey(args.d, args.tuple)
    store = default_store(args.cache)
    entry = store.get(key) if store else None
    if entry is None:
        entry = classify_entry(key)
        if store:
            store.put(entry)
    payload = _entry_row(entry)
    payload["poly"] = poly_to_strings(entry.value.defining)
    _emit(payload)
    return 0


def cmd_weyl(args) -> int:
    o = OrbitData(args.d, args.tuple)
    member, certificate = is_weyl_member(jonquieres_matrix(o))
    payload = {"member": member}
    if member:
        payload["quadratic_steps"] = certificate.quadratic_steps
        payload["trace"] = certificate.to_json_list()
    else:
        payload["reason"] = certificate.reason
    payload["terminal"] = matrices.to_json_dict(certificate.terminal)
    _emit(payload)
    return 0


def cmd_spectrum(args) -> int:
    entries = enumerate_level_prefix(args.d, args.m, args.limit, args.bound)
    store = default_store(args.cache)
    if store:
        store.put(*entries)
    sys.stdout.write(emit_table(entries, args.format))
    return 0


def cmd_realize(args) -> int:
    key = SpectrumKey(args.d, args.tuple)
    report = verify_realization(key)
    _emit(report.to_json_dict())
    return 0


def cmd_cache(args) -> int:
    store = default_store(args.cache)
    if store is None:
        raise SalemforgeError("no cache path: pass --cache or set SALEMFORGE_CACHE")
    if (args.d is None) != (args.tuple is None):
        raise SalemforgeError("a cache lookup needs both --d and --tuple")
    if args.d is not None:
        if args.format != "json":
            raise SalemforgeError("a cache lookup prints JSON only")
        entry = store.get(SpectrumKey(args.d, args.tuple))
        if entry is None:
            _emit({"present": False})
        else:
            payload = _entry_row(entry)
            payload["present"] = True
            _emit(payload)
        return 0
    sys.stdout.write(emit_table(store.entries(), args.format))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls of main."""
    parser = argparse.ArgumentParser(
        prog="salemforge",
        description="exact constructions and certificates for plane dynamical degrees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tuple_required=True, formats=("json",), cache=False):
        p.add_argument("--d", type=int, required=True, help="degree d >= 1")
        p.add_argument(
            "--tuple",
            type=_parse_tuple,
            default=() if not tuple_required else None,
            required=tuple_required,
            help="comma-separated orbit lengths n_2,...,n_m (may be empty)",
        )
        p.add_argument("--format", choices=formats, default="json")
        if cache:
            p.add_argument("--cache", default=None, help="JSONL cache path (or SALEMFORGE_CACHE)")

    p = sub.add_parser("poly", help="auxiliary polynomial coefficients")
    common(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("matrix", help="lattice matrix with basis labels")
    common(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("charpoly", help="characteristic polynomial of the matrix")
    common(p)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("lambda", help="certified dominant-root interval")
    common(p)
    p.add_argument("--width", type=_parse_width, default=Fraction(1, 10**9))
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("census", help="unit-circle root census of the polynomial")
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("classify", help="census + Salem/Pisot-style label")
    common(p, cache=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("weyl", help="membership certificate for the lattice matrix")
    common(p)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("spectrum", help="ordered prefix of a level set")
    common(p, tuple_required=False, formats=("json", "csv"), cache=True)
    p.add_argument("--m", type=int, required=True, help="level index 1..2d-1")
    p.add_argument("--limit", type=int, required=True, help="number of members")
    p.add_argument("--bound", type=int, required=True, help="largest allowed entry")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("realize", help="verify the cubic realization identities")
    common(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("cache", help="list cached entries, or look one up")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--tuple", type=_parse_tuple, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StructureViolation, CensusContradiction) as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return 1
    except (SalemforgeError, OSError) as exc:  # OSError: the --cache path cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
