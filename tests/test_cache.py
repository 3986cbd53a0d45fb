"""Append-only JSONL persistence for spectrum entries."""

import json
import warnings

from salemforge import polys
from salemforge.cache import SpectrumStore, _FileLock, default_store
from salemforge.spectrum import SpectrumKey, classify_entry, dynamical_degree
from fractions import Fraction


def make_entry(d=4, tup=(), width=None):
    entry = classify_entry(SpectrumKey(d, tup))
    if width is not None:
        from salemforge.spectrum import SpectrumEntry

        entry = SpectrumEntry(entry.key, dynamical_degree(entry.key, width), entry.census, entry.label)
    return entry


def test_put_then_get_roundtrip(tmp_path):
    store = SpectrumStore(tmp_path / "cache.jsonl")
    entry = make_entry(4, (2,))
    store.put(entry)
    got = store.get(SpectrumKey(4, (2,)))
    assert got is not None
    assert got.key == entry.key
    assert got.value.defining == entry.value.defining
    assert got.census == entry.census and got.label == entry.label


def test_get_on_empty_store(tmp_path):
    store = SpectrumStore(tmp_path / "absent.jsonl")
    assert store.get(SpectrumKey(4)) is None


def test_narrower_interval_wins(tmp_path):
    store = SpectrumStore(tmp_path / "cache.jsonl")
    wide = make_entry(4, (), width=Fraction(1, 10**3))
    narrow = make_entry(4, (), width=Fraction(1, 10**15))
    store.put(wide)
    store.put(narrow)
    store.put(wide)  # append-only: order should not matter
    got = store.get(SpectrumKey(4))
    assert got.value.interval.width <= Fraction(1, 10**15)


def test_corrupt_line_is_skipped_with_warning(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (2,)))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "d": "bogus"}\n')
    store.put(make_entry(4, (3,)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entries = store.entries()
    assert len(entries) == 2
    assert any("record" in str(w.message) or "malformed" in str(w.message) for w in caught)


def test_torn_final_line_is_tolerated(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (2,)))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "d": 4, "tuple": [3], "poly": ["-1"')  # torn write
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entries = store.entries()
    assert len(entries) == 1
    assert not caught  # a torn final line is expected, not warning-worthy


def test_interval_revalidated_on_read(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (2,)))
    record = json.loads(path.read_text().splitlines()[0])
    record["interval"] = {"lo": "100", "hi": "200"}  # no root in there
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entries = store.entries()
    assert len(entries) == 1
    assert caught


def test_non_square_free_polynomial_rejected_on_read(tmp_path):
    # p**2 has one distinct root in the interval, but not a simple one
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (2,)))
    record = json.loads(path.read_text().splitlines()[0])
    poly = [int(c) for c in record["poly"]]
    record["poly"] = [str(c) for c in polys.mul(poly, poly)]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entries = store.entries()
    assert len(entries) == 1
    assert any("square-free" in str(w.message) for w in caught)


def test_lock_file_lifecycle(tmp_path):
    path = tmp_path / "cache.jsonl"
    with _FileLock(path):
        assert (tmp_path / "cache.jsonl.lock").exists()
    assert not (tmp_path / "cache.jsonl.lock").exists()


def test_default_store_env(tmp_path, monkeypatch):
    monkeypatch.delenv("SALEMFORGE_CACHE", raising=False)
    assert default_store(None) is None
    monkeypatch.setenv("SALEMFORGE_CACHE", str(tmp_path / "env.jsonl"))
    store = default_store(None)
    assert store is not None and store.path.name == "env.jsonl"
    fromflag = default_store(str(tmp_path / "flag.jsonl"))
    assert fromflag.path.name == "flag.jsonl"
