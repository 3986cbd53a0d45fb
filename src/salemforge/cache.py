"""Append-only JSON-lines persistence for spectrum entries.

One record per line, schema 1.  Writers append under an flock of the file;
readers never lock and tolerate a torn final line by skipping it.  On
duplicate keys the record with the narrowest certified interval wins.

Reads go through two process-wide memos keyed by content, so each distinct
line is parsed once and each distinct record (its fields but `ts`) checked
once per process; an edited line is a new key, never a stale verdict.  Both
are read without a lock, filled under one, and drop their oldest past `_CAP`.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
import time
import warnings
from pathlib import Path

from . import polys
from .algebraic import GREATER, AlgebraicReal, RationalInterval, compare_with_rational
from .census import UnitCircleCensus, salem_pisot_label
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

_CAP = 1 << 14
_LOCK = threading.Lock()
_BLANK, _UNPARSEABLE = object(), "unparseable record skipped"  # _UNPARSEABLE is told apart by identity
_LINES: dict = {}  # line bytes -> _BLANK, _UNPARSEABLE, a malformed-key message, or (record, (d, tuple))
_CHECKED: dict = {}  # record JSON without ts -> record_to_entry's SpectrumEntry, or its StoreCorrupt message


def _remember(memo: dict, key, value):
    with _LOCK:
        value = memo.setdefault(key, value)
        if len(memo) > _CAP:
            del memo[next(iter(memo))]
    return value


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
        fits = census.total == polys.degree(key_poly) and census.outside == 1
        off_axis = census.on - polys.degree(key_poly) + polys.degree(q)  # conjugate pairs, so even
        fits = fits and min(census.inside, off_axis) >= 0 and off_axis % 2 == 0
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:  # ZeroDivisionError: "p/0"
        raise StoreCorrupt(f"malformed record: {exc}") from exc
    if not fits:
        raise StoreCorrupt("stored census does not fit the key's polynomial")
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
    if label != salem_pisot_label(key_poly, value):
        raise StoreCorrupt("stored label does not fit the key's polynomial")
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

    def _entries(self, want=None):
        """Each valid entry whose (d, tuple) is `want` (every one if None); a
        corrupt record of that key, or with a malformed key, warns instead."""
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            lines = fh.readlines()
        for lineno, line in enumerate(lines, 1):
            verdict = _LINES.get(line) or _remember(_LINES, line, _parse(line))
            if type(verdict) is tuple:  # a record and its key
                if want not in (None, verdict[1]):
                    continue
                verdict = _checked(verdict[0], line)
            if verdict is _BLANK or verdict is _UNPARSEABLE and lineno == len(lines):
                continue  # a torn final line from a concurrent writer is expected
            if isinstance(verdict, str):
                warnings.warn(f"{self.path}:{lineno}: {verdict}")
            else:
                yield verdict

    def entries(self) -> list:
        """Every valid entry; each corrupt record is skipped with a warning."""
        return list(self._entries())

    def get(self, key):
        """Narrowest stored entry for the key, or None.

        Only records whose key matches are checked in full, so a corrupt
        record of another key is skipped without a warning.
        """
        return min(self._entries((key.d, key.tuple)), key=lambda e: e.value.interval.width, default=None)


def _parse(line: bytes):
    """The outcome of one line, as _LINES holds it."""
    try:
        text = line.decode("utf-8").strip()
        if not text:
            return _BLANK
        record = json.loads(text)
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested too deep to parse
        return _UNPARSEABLE
    try:
        key = record_key(record)
    except StoreCorrupt as exc:
        return str(exc)
    return record, (key.d, key.tuple)


def _checked(record, line):
    """record_to_entry's verdict on a parsed record, once per content but `ts`."""
    try:  # record_to_entry never reads ts; key order stays, since its messages can show it
        check = json.dumps({k: v for k, v in record.items() if k != "ts"})
    except RecursionError:  # parsed just below the limit: key the verdict by the line
        check = line
    verdict = _CHECKED.get(check)
    if verdict is None:
        try:
            verdict = record_to_entry(record)
        except StoreCorrupt as exc:  # a message: a kept exception would grow its traceback on each raise
            verdict = str(exc)
        verdict = _remember(_CHECKED, check, verdict)
    return verdict


def default_store(path_flag=None) -> SpectrumStore | None:
    path = path_flag or os.environ.get(ENV_VAR)
    return SpectrumStore(path) if path else None
