"""Append-only JSON-lines persistence for spectrum entries.

One record per line, schema 1.  Writers append under an flock of the file;
readers never lock and tolerate a torn final line by skipping it.  On
duplicate keys the record with the narrowest certified interval wins.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
import warnings
from pathlib import Path

from . import polys
from .algebraic import GREATER, AlgebraicReal, RationalInterval, compare_with_rational
from .census import UnitCircleCensus
from .errors import EndpointIsRoot, InvalidKey, StoreCorrupt
from .serialize import (
    census_to_dict,
    interval_to_dict,
    poly_to_strings,
    str_to_frac,
    strings_to_poly,
)
from .spectrum import SpectrumEntry, SpectrumKey

SCHEMA = 1
ENV_VAR = "SALEMFORGE_CACHE"
LABELS = ("pisot_like", "salem_like", "undetermined")  # every label census.salem_pisot_label gives


class _FileLock:
    """Exclusive advisory flock on the data file, opened for appending.

    The lock belongs to the open file, so the kernel releases it when the
    holder closes it or dies; a killed writer cannot leave a stale lock.
    """

    def __init__(self, path: Path, timeout: float = 10.0):
        self.path = path
        self.timeout = timeout
        self._fh = None

    def __enter__(self):
        self._fh = open(self.path, "a", encoding="utf-8")
        deadline = time.monotonic() + self.timeout
        try:
            while True:
                try:
                    fcntl.flock(self._fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    return self._fh
                except BlockingIOError:
                    if time.monotonic() > deadline:
                        raise TimeoutError(f"could not lock {self.path}") from None
                    time.sleep(0.02)
        except BaseException:
            self._fh.close()
            raise

    def __exit__(self, *exc):
        self._fh.close()  # flushes the record, then drops the lock
        return False


def entry_to_record(entry) -> dict:
    return {
        "schema": SCHEMA,
        "d": entry.key.d,
        "tuple": list(entry.key.tuple),
        "poly": poly_to_strings(entry.value.defining),
        "interval": interval_to_dict(entry.value.interval),
        "census": census_to_dict(entry.census),
        "label": entry.label,
        "ts": time.time(),
    }


def record_key(record: dict):
    """The record's SpectrumKey, without checking the rest of the record."""
    try:
        if record.get("schema") != SCHEMA:
            raise KeyError("schema")
        return SpectrumKey(record["d"], tuple(record["tuple"]))
    except (KeyError, ValueError, TypeError, AttributeError, InvalidKey) as exc:
        raise StoreCorrupt(f"malformed record: {exc}") from exc


def record_to_entry(record: dict):
    """The record's SpectrumEntry, or StoreCorrupt.  Census counts are trusted once they
    fit the key: its degree, outside == 1, and on - e even and >= 0, e the multiplicity
    of 1 and -1 as roots of its polynomial (re-deriving them would cost a census per hit)."""
    key = record_key(record)
    key_poly = q = key.polynomial()
    for value, root_poly in ((1, (-1, 1)), (-1, (1, 1))):  # q: key_poly without its roots at 1 and -1
        while polys.eval_at(q, value) == 0:
            q = polys.divexact(q, root_poly)
    try:
        poly = strings_to_poly(record["poly"])
        lo = str_to_frac(record["interval"]["lo"])
        hi = str_to_frac(record["interval"]["hi"])
        census = UnitCircleCensus(**record["census"])
        if not all(type(c) is int for c in (census.inside, census.on, census.outside)):
            raise TypeError(f"census counts must be integers, got {record['census']}")
        label = record["label"]
        fits = label in LABELS and census.total == polys.degree(key_poly) and census.outside == 1
        off_axis = census.on - polys.degree(key_poly) + polys.degree(q)  # conjugate pairs, so even
        fits = fits and min(census.inside, off_axis) >= 0 and off_axis % 2 == 0
        # with on == 0 salem_pisot_label strips nothing: pisot_like
        fits = fits and (census.on > 0 or label == "pisot_like")
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:  # ZeroDivisionError: "p/0"
        raise StoreCorrupt(f"malformed record: {exc}") from exc
    if not fits:
        raise StoreCorrupt("stored label or census does not fit the key's polynomial")
    try:
        if polys.sturm_count(poly, lo, hi) != 1:
            raise StoreCorrupt("stored interval does not isolate a root")
        elif polys.square_free_part(poly) != poly:
            # refinement bisects by sign, which needs a simple root
            raise StoreCorrupt("stored polynomial is not primitive and square-free")
    except (ValueError, EndpointIsRoot) as exc:  # reversed interval, root at an endpoint
        raise StoreCorrupt(f"stored interval is unusable: {exc}") from exc
    value = AlgebraicReal(poly, RationalInterval(lo, hi))
    # a root of a factor of the key's polynomial exceeding 2, as _dominant_root certifies
    if polys.pseudo_divmod(key_poly, poly)[1] or compare_with_rational(value, 2) != GREATER:
        raise StoreCorrupt("stored value is not the dominant root of the key's polynomial")
    return SpectrumEntry(key, value, census, label)


class SpectrumStore:
    """JSON-lines store; get() prefers the narrowest interval for a key."""

    def __init__(self, path):
        self.path = Path(path)

    def put(self, *entries) -> None:
        """Append one record per entry, all under one lock."""
        lines = "".join(json.dumps(entry_to_record(e)) + "\n" for e in entries)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _FileLock(self.path) as fh:
            fh.write(lines)

    def _records(self):
        """(line number, parsed record) for each line that parses."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            lines = fh.readlines()
        for lineno, line in enumerate(lines, 1):
            try:
                line = line.decode("utf-8").strip()
                if line:
                    yield lineno, json.loads(line)
            except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested too deep to parse
                if lineno == len(lines):
                    continue  # torn final line from a concurrent writer
                warnings.warn(f"{self.path}:{lineno}: unparseable record skipped")

    def entries(self) -> list:
        """Every valid entry; each corrupt record is skipped with a warning."""
        out = []
        for lineno, record in self._records():
            try:
                out.append(record_to_entry(record))
            except StoreCorrupt as exc:
                warnings.warn(f"{self.path}:{lineno}: {exc}")
        return out

    def get(self, key):
        """Narrowest stored entry for the key, or None.

        Only records whose key matches are checked in full, so a corrupt
        record of another key is skipped without a warning.
        """
        best = None
        for lineno, record in self._records():
            try:
                if record_key(record) != key:
                    continue
                entry = record_to_entry(record)
            except StoreCorrupt as exc:
                warnings.warn(f"{self.path}:{lineno}: {exc}")
                continue
            if best is None or entry.value.interval.width < best.value.interval.width:
                best = entry
        return best


def default_store(path_flag=None) -> SpectrumStore | None:
    path = path_flag or os.environ.get(ENV_VAR)
    return SpectrumStore(path) if path else None
