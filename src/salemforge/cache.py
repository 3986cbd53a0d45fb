"""Append-only JSON-lines persistence for spectrum entries.

One record per line, schema 1.  Writers take an advisory lock file;
readers never lock and tolerate a torn final line by skipping it.  On
duplicate keys the record with the narrowest certified interval wins.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path

from . import polys
from .algebraic import AlgebraicReal, RationalInterval
from .census import UnitCircleCensus
from .errors import StoreCorrupt
from .serialize import (
    census_to_dict,
    interval_to_dict,
    poly_to_strings,
    str_to_frac,
    strings_to_poly,
)

SCHEMA = 1
ENV_VAR = "SALEMFORGE_CACHE"


class _FileLock:
    """Advisory lock: exclusive creation of path + '.lock'."""

    def __init__(self, path: Path, timeout: float = 10.0):
        self.lock_path = Path(str(path) + ".lock")
        self.timeout = timeout
        self._fd = None

    def __enter__(self):
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                self._fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                return self
            except FileExistsError:
                if time.monotonic() > deadline:
                    raise TimeoutError(f"could not acquire {self.lock_path}")
                time.sleep(0.02)

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
        self.lock_path.unlink(missing_ok=True)
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


def record_to_entry(record: dict):
    from .spectrum import SpectrumEntry, SpectrumKey  # local: avoid cycle

    try:
        if record.get("schema") != SCHEMA:
            raise KeyError("schema")
        key = SpectrumKey(record["d"], tuple(record["tuple"]))
        poly = strings_to_poly(record["poly"])
        lo = str_to_frac(record["interval"]["lo"])
        hi = str_to_frac(record["interval"]["hi"])
        census = UnitCircleCensus(**record["census"])
        label = record["label"]
    except (KeyError, ValueError, TypeError) as exc:
        raise StoreCorrupt(f"malformed record: {exc}") from exc
    if lo == hi:
        if polys.eval_at(poly, lo) != 0:
            raise StoreCorrupt("stored exact value is not a root")
    elif polys.sturm_count(poly, lo, hi) != 1:
        raise StoreCorrupt("stored interval does not isolate a root")
    elif polys.sturm_chain(poly)[0] != poly:
        # refinement bisects by sign, which needs a simple root
        raise StoreCorrupt("stored polynomial is not primitive and square-free")
    value = AlgebraicReal(poly, RationalInterval(lo, hi))
    return SpectrumEntry(key, value, census, label)


class SpectrumStore:
    """JSON-lines store; get() prefers the narrowest interval for a key."""

    def __init__(self, path):
        self.path = Path(path)

    def put(self, entry) -> None:
        record = entry_to_record(entry)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _FileLock(self.path):
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")

    def _iter_records(self):
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    continue  # torn final line from a concurrent writer
                warnings.warn(f"{self.path}:{lineno + 1}: unparseable record skipped")
                continue
            try:
                yield record_to_entry(record)
            except StoreCorrupt as exc:
                warnings.warn(f"{self.path}:{lineno + 1}: {exc}")

    def entries(self) -> list:
        return list(self._iter_records())

    def get(self, key):
        """Narrowest stored entry for the key, or None."""
        best = None
        for entry in self._iter_records():
            if entry.key != key:
                continue
            if best is None or entry.value.interval.width < best.value.interval.width:
                best = entry
        return best


def default_store(path_flag=None) -> SpectrumStore | None:
    path = path_flag or os.environ.get(ENV_VAR)
    return SpectrumStore(path) if path else None
