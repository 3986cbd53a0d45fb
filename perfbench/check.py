"""Correctness checks on the verdicts of a pass.

Checks that need no stored answer run on every seed.  Where the inputs are
those of the default seed, or the same on every seed up to order (the
structure sweep, the level prefixes, the classify keys), verdicts must
also match `reference.json`.  Intervals are checked by width and by overlapping a
committed decimal bracket of the true value, never by their bytes: a
faster refinement may legitimately return other endpoints.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from workloads import DEFAULT_SEED, WIDTH

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def key_id(d, tup):
    return f"{d}:{','.join(map(str, tup))}"


def interval_problems(interval, bracket):
    """Width at most WIDTH, and overlapping the bracket that holds the value."""
    try:
        lo, hi = Fraction(interval[0]), Fraction(interval[1])  # "p/q" or decimal
    except (TypeError, ValueError, ZeroDivisionError):
        return [f"unreadable interval {interval!r}"]
    out = []
    if not lo <= hi:
        out.append(f"empty interval {interval!r}")
    if hi - lo > WIDTH:
        out.append(f"interval wider than {WIDTH}")
    if bracket is not None and (hi < Fraction(bracket[0]) or Fraction(bracket[1]) < lo):
        out.append(f"interval {interval!r} misses the reference value {bracket!r}")
    return out


def item_problems(item, verdict, reference, seed):
    """Everything wrong with one verdict; an empty list means it passed."""
    if verdict is None:
        return ["item raised"]
    kind = item[0]
    if kind == "sweep":
        _, d, tup = item
        ref = reference["sweep"][key_id(d, tup)]
        out = []
        if verdict["census"][2] != 1:
            out.append("census outside != 1")
        if verdict["census"] != ref["census"]:
            out.append(f"census {verdict['census']} != {ref['census']}")
        if verdict["above_2"] is not True:
            out.append("dominant root not certified > 2")
        out += interval_problems(verdict["interval"], ref["lambda"])
        full = 1 + len(tup) == 2 * d - 1
        if full != ("weyl" in verdict):
            out.append("Weyl check missing or unexpected")
        elif full and verdict["weyl"] != [True, d - 1, True]:
            out.append(f"Weyl verdict {verdict['weyl']}: want member, {d - 1} quadratic steps, replay")
        return out
    if kind == "points":
        want = 2 + sum(item[2])
        return [] if verdict["points"] == want else [f"{verdict['points']} points, want {want}"]
    if kind in ("affine", "eigen", "increase", "append"):
        return [] if verdict["pass"] is True else [f"{kind} check returned {verdict['pass']}"]
    if kind == "verify":
        out = [] if verdict["pass"] is True else ["verify_realization overall fails"]
        if seed == DEFAULT_SEED and verdict["sha256"] != reference["realize_sha256"]:
            out.append("verify_realization JSON differs from the committed report")
        return out
    if kind == "level":
        want = reference["levels"][",".join(map(str, item[1:]))]
        out = [] if verdict["tuples"] == want else ["level prefix differs from the committed tuples"]
        if verdict.get("order") is not True:
            out.append("lexicographic order disagrees with value order")
        return out
    if kind in ("miss", "hit"):
        if verdict["rc"] != 0:
            return [f"classify exited {verdict['rc']}"]
        out = []
        if not str(verdict["census"]).endswith(";1"):
            out.append(f"census {verdict['census']}: outside != 1")
        ref = reference["classify"].get(key_id(item[1], sorted(item[2])))  # any order of the entries
        if ref is None:
            out.append("no committed verdict for this key")
        if ref is not None and [verdict["census"], verdict["label"]] != [ref["census"], ref["label"]]:
            out.append(f"census/label {verdict['census']}/{verdict['label']} != {ref['census']}/{ref['label']}")
        out += interval_problems(verdict["interval"], ref["lambda"] if ref else None)
        return out
    return [f"unknown item kind {kind!r}"]


def pass_problems(workload, items, verdicts, facts, reference, seed):
    """Per-item problem lists for one pass, pass-level checks included.

    A pass-level failure (a hit that differs from its miss, a store with
    the wrong record count) is charged to the items it concerns; a wrong
    record count is charged to every item of the pass.
    """
    problems = [item_problems(i, v, reference, seed) for i, v in zip(items, verdicts)]
    if len(verdicts) != len(items):
        problems += [["item missing"] for _ in range(len(items) - len(verdicts))]
    if workload == "classify-cache":
        miss = {}
        for i, (item, verdict) in enumerate(zip(items, verdicts)):
            if verdict is None:
                continue
            key = key_id(item[1], item[2])
            if item[0] == "miss":
                miss[key] = verdict["sha256"]
            elif miss.get(key) != verdict["sha256"]:
                problems[i].append("hit output differs from miss output")
        want = len({key_id(i[1], i[2]) for i in items})
        if facts.get("store_records") != want:
            for p in problems:
                p.append(f"store holds {facts.get('store_records')} records, want {want}")
    return problems
