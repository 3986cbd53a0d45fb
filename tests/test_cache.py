"""Append-only JSONL persistence for spectrum entries."""

import fcntl
import json
import signal
import subprocess
import sys
import time
import warnings

import pytest

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


def test_line_that_is_not_utf8_is_skipped_with_warning(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (2,)))
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    store.put(make_entry(4, (3,)))
    with pytest.warns(UserWarning, match=":2: unparseable record skipped"):
        assert len(store.entries()) == 2


def test_torn_final_line_cut_inside_a_character_is_tolerated(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (2,)))
    with open(path, "ab") as fh:
        fh.write('{"schema": 1, "label": "\u00e9'.encode()[:-1])  # torn inside a 2-byte character
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert len(store.entries()) == 1
    assert not caught


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


def append_record(path, record):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def stored_record(path, lineno=0):
    return json.loads(path.read_text().splitlines()[lineno])


def lookup(store, key):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = store.get(key)
    return got, [str(w.message) for w in caught]


def test_get_skips_corrupt_record_of_other_key_silently(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (3,)))
    bad = stored_record(path)
    bad["interval"] = {"lo": "100", "hi": "200"}  # no root in there
    append_record(path, bad)
    store.put(make_entry(4, (2,)))
    got, caught = lookup(store, SpectrumKey(4, (2,)))
    assert got is not None and got.key == SpectrumKey(4, (2,))
    assert not caught
    got, caught = lookup(store, SpectrumKey(4, (3,)))
    assert got is not None and len(caught) == 1


def test_get_warns_on_corrupt_record_of_its_key_and_narrowest_valid_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (), width=Fraction(1, 10**3)))
    store.put(make_entry(4, (), width=Fraction(1, 10**15)))
    bad = stored_record(path, 1)
    bad["interval"]["hi"] = bad["interval"]["lo"]  # narrower, but not a root
    append_record(path, bad)
    got, caught = lookup(store, SpectrumKey(4))
    assert Fraction(0) < got.value.interval.width <= Fraction(1, 10**15)
    assert len(caught) == 1 and "cache.jsonl:3" in caught[0]


def test_get_warns_on_record_with_malformed_key(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (2,)))
    for bad in ('{"schema": 1, "d": 3, "tuple": []}', "[4, [2]]"):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
    got, caught = lookup(store, SpectrumKey(4, (2,)))
    assert got is not None
    assert len(caught) == 2 and all("malformed" in m for m in caught)


def test_entries_warn_once_per_corrupt_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (2,)))
    store.put(make_entry(4, (3,)))
    for lineno in (0, 1):
        bad = stored_record(path, lineno)
        bad["interval"] = {"lo": "100", "hi": "200"}
        append_record(path, bad)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json\n")
    store.put(make_entry(5))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entries = store.entries()
    assert len(entries) == 3
    assert [str(w.message).split(": ")[0] for w in caught] == [f"{path}:{n}" for n in (3, 4, 5)]


@pytest.mark.parametrize("lo,hi", [("2", "3"), ("1", "2"), ("3", "1"), ("2", "2")])
def test_unusable_interval_is_skipped_with_warning(tmp_path, lo, hi):
    # poly X - 2 stored with its root at an endpoint, over a reversed
    # interval, or as the exact value 2, which is no root of the key's poly
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (2,)))
    bad = stored_record(path)
    bad["poly"] = ["-2", "1"]
    bad["interval"] = {"lo": lo, "hi": hi}
    append_record(path, bad)
    got, caught = lookup(store, SpectrumKey(4, (2,)))
    assert got is not None and got.value.interval.lo != 2
    assert len(caught) == 1


@pytest.mark.parametrize(
    "change, reason",
    [
        # X + 1 divides the key's polynomial, but its root -1 is not dominant
        ({"poly": ["1", "1"], "interval": {"lo": "-2", "hi": "0"}}, "dominant root"),
        # the key's polynomial with the interval of its other real root, -1
        ({"interval": {"lo": "-2", "hi": "0"}}, "dominant root"),
        # the dominant root of X^2 - 3X - 1, which does not divide the key's polynomial
        ({"poly": ["-1", "-3", "1"], "interval": {"lo": "3", "hi": "4"}}, "dominant root"),
        ({"census": {"inside": 5, "on": 3, "outside": 1}}, "does not fit"),
        ({"census": {"inside": 4, "on": 2, "outside": 2}}, "does not fit"),
        ({"label": "salem"}, "does not fit"),
        ({"poly": ["0"], "interval": {"lo": "5", "hi": "5"}}, "unusable"),
        ({"census": {"inside": None, "on": 2, "outside": 1}}, "malformed"),
        # keys and counts that are not all integers, once coerced to this key
        ({"d": 4.0}, "malformed"),
        ({"tuple": "33"}, "malformed"),
        ({"tuple": [3, 3.9]}, "malformed"),
        ({"census": {"inside": 4.0, "on": 3, "outside": 1}}, "malformed"),
        # counts that sum to the degree, but one is negative
        ({"census": {"inside": -1, "on": 8, "outside": 1}}, "does not fit"),
        # with no circle roots nothing is stripped, so the label is pisot_like
        ({"census": {"inside": 7, "on": 0, "outside": 1}, "label": "salem_like"}, "does not fit"),
        # -1 is a simple root of the key's polynomial, so on is odd and at least 1
        ({"census": {"inside": 7, "on": 0, "outside": 1}, "label": "pisot_like"}, "does not fit"),
        ({"census": {"inside": 5, "on": 2, "outside": 1}}, "does not fit"),
        # an interval endpoint with a zero denominator
        ({"interval": {"lo": "1/0", "hi": "3"}}, "malformed"),
    ],
)
def test_record_not_tied_to_its_key_is_skipped(tmp_path, change, reason):
    # the key's polynomial (X + 1)(X^2 - X + 1)(X^5 - 3X^4 - ...) has the
    # real roots -1 and lambda; its census is (4, 3, 1)
    entry = make_entry(4, (3, 3))
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(entry)
    append_record(path, {**stored_record(path), **change})
    got, caught = lookup(store, entry.key)
    assert got is not None and got.value == entry.value
    assert len(caught) == 1 and reason in caught[0]


def test_get_does_not_return_permuted_tuple(tmp_path):
    path = tmp_path / "cache.jsonl"
    store = SpectrumStore(path)
    store.put(make_entry(4, (2, 3)))
    record = stored_record(path)
    path.write_text("")
    record["tuple"] = [3, 2]  # same polynomial, another key
    append_record(path, record)
    assert store.get(SpectrumKey(4, (3, 2))) is not None
    assert store.get(SpectrumKey(4, (2, 3))) is None


def flock_free(path) -> bool:
    with open(path, "a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False
        return True


def test_lock_file_lifecycle(tmp_path):
    # the lock is an flock on the data file itself, held only inside the block
    path = tmp_path / "cache.jsonl"
    with _FileLock(path):
        assert not flock_free(path)
        with pytest.raises(TimeoutError):
            with _FileLock(path, timeout=0.05):
                pass
    assert flock_free(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.jsonl"]


LOCK_HOLDER = """
import sys, time
from pathlib import Path
from salemforge.cache import _FileLock
with _FileLock(Path(sys.argv[1])):
    print("locked", flush=True)
    time.sleep(60)
"""


def timed_put(store, entry) -> float:
    start = time.monotonic()
    store.put(entry)
    return time.monotonic() - start


def test_lock_released_when_writer_is_killed(tmp_path):
    path = tmp_path / "cache.jsonl"
    child = subprocess.Popen(
        [sys.executable, "-c", LOCK_HOLDER, str(path)], stdout=subprocess.PIPE, text=True
    )
    try:
        assert child.stdout.readline() == "locked\n"
        assert not flock_free(path)
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=10) == -signal.SIGKILL
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    store = SpectrumStore(path)
    assert timed_put(store, make_entry(4, (2,))) < 1.0
    assert store.get(SpectrumKey(4, (2,))) is not None


def test_stale_lock_file_does_not_block(tmp_path):
    # an earlier version locked by creating cache.jsonl.lock; a killed writer left it behind
    path = tmp_path / "cache.jsonl"
    (tmp_path / "cache.jsonl.lock").write_text("")
    store = SpectrumStore(path)
    assert timed_put(store, make_entry(4, (2,))) < 1.0
    assert store.get(SpectrumKey(4, (2,))) is not None


def test_default_store_env(tmp_path, monkeypatch):
    monkeypatch.delenv("SALEMFORGE_CACHE", raising=False)
    assert default_store(None) is None
    monkeypatch.setenv("SALEMFORGE_CACHE", str(tmp_path / "env.jsonl"))
    store = default_store(None)
    assert store is not None and store.path.name == "env.jsonl"
    fromflag = default_store(str(tmp_path / "flag.jsonl"))
    assert fromflag.path.name == "flag.jsonl"
