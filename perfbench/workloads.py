"""Seeded inputs and the timed passes of the four benchmark workloads.

`make_inputs` is pure Python and never imports salemforge: it turns a seed
into the JSON-able inputs of one run.  `run_pass` executes a list of items
(`pass_items` for a timed pass, `check_items` for the untimed checks run
once per run) through salemforge's public API and, for classify-cache, its
CLI entry point.  It returns one verdict per item.  Verdicts are plain JSON
values; check.py decides whether they are right.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from fractions import Fraction

WORKLOADS = ("structure-sweep", "realize", "spectrum-order", "classify-cache")
DEFAULT_SEED = 20240810

SWEEP_STRIDE = 24
SPECTRUM_DRAWS = 6
# (tuple length, entry sum) of the classify keys drawn for each degree d;
# the sum fixes the polynomial degree, which sets the cost of a key
CLASSIFY_SLOTS = (
    (0, 0), (1, 3), (1, 5), (1, 7), (1, 9), (2, 8), (2, 11), (2, 14), (2, 17), (3, 12), (3, 16), (3, 20), (3, 24)
)
LEVEL_PREFIXES = ((4, 3, 10, 30),)
REALIZE_ENTRIES = (2, 3, 4, 5, 6, 7)
WIDTH = Fraction(1, 10**12)


# -- inputs ---------------------------------------------------------------


def sweep_orbits():
    """The 249 (d, tuple) orbit data of acceptance criteria 1-3."""
    return [
        (d, tup)
        for d in (4, 5)
        for length in range(0, 2 * d - 1)
        for tup in itertools.combinations_with_replacement((2, 3, 4), length)
    ]


def sweep_sample(stride=SWEEP_STRIDE):
    """Every `stride`-th orbit of the sweep ranked by matrix size.

    Matrix size drives the cost of char_poly and of root isolation, so the
    sample spans the sweep's cost range.  Every seed runs this sample; the
    seed only shuffles its order, so the work is the same on every seed.
    """
    ranked = sorted(sweep_orbits(), key=lambda o: (3 + sum(o[1]), o[0], o[1]))
    return ranked[stride // 2 :: stride]


def acceptance_stream(n=100, seed=DEFAULT_SEED):
    """The (d, tuple, position, appended) draws of acceptance criterion 6."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        d = rng.choice((4, 5))
        length = rng.randrange(1, 4)
        tup = tuple(rng.randrange(2, 9) for _ in range(length))
        position = rng.randrange(length)
        appended = rng.randrange(2, 9)
        out.append((d, tup, position, appended))
    return out


def _stream_cost(draw):
    """Degrees of the three polynomials one draw compares (key, bumped, extended).

    Its rank correlation with the measured cost of a draw is about 0.95.
    """
    _, tup, _, appended = draw
    return 3 * (2 + sum(tup)) + 1 + appended


def _composition(rng, length, total):
    """A random nondecreasing tuple of `length` entries in 2..11 summing to `total`."""
    if length == 0:
        return []
    while True:
        parts = [rng.randrange(2, 12) for _ in range(length - 1)]
        last = total - sum(parts)
        if 2 <= last <= 11:
            return sorted(parts + [last])


def classify_keys():
    """The classify-cache keys: one per (d, slot), entries drawn from DEFAULT_SEED."""
    rng = random.Random(DEFAULT_SEED)
    keys = [[d, _composition(rng, length, total)] for d in (4, 5) for length, total in CLASSIFY_SLOTS]
    rng.shuffle(keys)
    return keys


def make_inputs(workload, seed):
    rng = random.Random(seed)
    if workload == "structure-sweep":
        orbits = sweep_sample()
        rng.shuffle(orbits)
        return {"orbits": orbits}
    if workload == "realize":
        entries = list(REALIZE_ENTRIES)
        if seed != DEFAULT_SEED:
            rng.shuffle(entries)  # same polynomial, so the same cost
        return {"d": 4, "tuple": entries}
    if workload == "spectrum-order":
        # the draws at evenly spaced cost ranks; the seed reorders each tuple
        # (and the draws), which keeps every polynomial and so the cost
        ranked = sorted(acceptance_stream(), key=_stream_cost)
        step = len(ranked) // SPECTRUM_DRAWS
        picks = [ranked[step * i + step // 2] for i in range(SPECTRUM_DRAWS)]
        rng.shuffle(picks)
        checks = []
        for d, tup, position, appended in picks:
            order = list(range(len(tup)))
            rng.shuffle(order)
            entries = [tup[i] for i in order]
            checks.append(["increase", d, entries, order.index(position)])
            checks.append(["append", d, entries, appended])
        return {"checks": checks, "levels": [list(p) for p in LEVEL_PREFIXES]}
    if workload == "classify-cache":
        # the seed reorders each key's entries: a new key to the store, but
        # the same polynomial, so the same cost and the same verdict
        keys = classify_keys()
        if seed != DEFAULT_SEED:
            for _, entries in keys:
                rng.shuffle(entries)
        return {"keys": keys}
    raise ValueError(f"unknown workload {workload!r}")


def pass_items(workload, inputs):
    """The items every pass of a run repeats, in order; each is a JSON list."""
    if workload == "structure-sweep":
        return [["sweep", d, tup] for d, tup in inputs["orbits"]]
    if workload == "realize":
        return [["verify", inputs["d"], inputs["tuple"]]]
    if workload == "spectrum-order":
        return [list(c) for c in inputs["checks"]] + [["level", *p] for p in inputs["levels"]]
    if workload == "classify-cache":
        # each key is a miss (compute + append) and later a hit (read); the
        # hit of key i comes after the miss of key i+1, so writes sit
        # beside reads instead of each read following its own write
        keys = inputs["keys"]
        ops = [["miss", *keys[0]]]
        for i in range(1, len(keys)):
            ops += [["miss", *keys[i]], ["hit", *keys[i - 1]]]
        ops.append(["hit", *keys[-1]])
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def check_items(workload, inputs):
    """Items run once per run, untimed, only for their verdicts.

    The realization plan that check_affine_recursion and check_eigen_system
    need costs as much as a third of a realize pass and duplicates work
    verify_realization does itself, so realize times verify_realization
    alone and checks the plan here.
    """
    if workload == "realize":
        key = [inputs["d"], inputs["tuple"]]
        return [["points", *key], ["affine", *key], ["eigen", *key]]
    return []


# -- passes ---------------------------------------------------------------


def _interval(value):
    from salemforge.serialize import frac_to_str

    return [frac_to_str(value.interval.lo), frac_to_str(value.interval.hi)]


class PassState:
    """What the items of one pass share: the realization plan, the store."""

    def __init__(self, store_path):
        self.store_path = store_path
        self.plan = None
        self.entries = {}  # level prefix -> entries, for the untimed order check


def run_item(item, state):
    """Run one item through salemforge and return its verdict."""
    from salemforge import algebraic, spectrum
    from salemforge.census import unit_circle_census
    from salemforge.jonquieres import OrbitData, auxiliary_polynomial, jonquieres_matrix, verify_structure
    from salemforge.realization import (
        check_affine_recursion,
        check_eigen_system,
        realization_points,
        verify_realization,
    )
    from salemforge.weyl import is_weyl_member

    kind = item[0]
    if kind == "sweep":
        _, d, tup = item
        o = OrbitData(d, tup)
        verify_structure(o)
        census = unit_circle_census(auxiliary_polynomial(o))
        value = spectrum.dynamical_degree(spectrum.SpectrumKey(d, tup))
        verdict = {
            "census": [census.inside, census.on, census.outside],
            "above_2": algebraic.compare_with_rational(value, 2) == algebraic.GREATER,
            "interval": _interval(value),
        }
        if o.m == 2 * d - 1:
            j = jonquieres_matrix(o)
            member, trace = is_weyl_member(j)
            replays = member and trace.replay(j) == trace.terminal
            verdict["weyl"] = [member, trace.quadratic_steps if member else None, replays]
        return verdict
    if kind == "points":
        state.plan = realization_points(spectrum.SpectrumKey(item[1], item[2]))
        return {"points": len(state.plan.points)}
    if kind == "affine":
        return {"pass": check_affine_recursion(state.plan)}
    if kind == "eigen":
        return {"pass": check_eigen_system(state.plan)}
    if kind == "verify":
        report = verify_realization(spectrum.SpectrumKey(item[1], item[2]))
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        return {"pass": report.overall_pass, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if kind == "increase":
        return {"pass": spectrum.verify_monotone_increase(spectrum.SpectrumKey(item[1], item[2]), item[3])}
    if kind == "append":
        return {"pass": spectrum.verify_append_decrease(spectrum.SpectrumKey(item[1], item[2]), item[3])}
    if kind == "level":
        entries = spectrum.enumerate_level_prefix(*item[1:])
        state.entries[tuple(item[1:])] = entries
        return {"tuples": [list(e.key.tuple) for e in entries]}
    if kind in ("miss", "hit"):
        from salemforge import cli

        argv = ["classify", "--d", str(item[1]), "--tuple", ",".join(map(str, item[2]))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv + ["--cache", state.store_path])
        payload = json.loads(out.getvalue()) if rc == 0 else {}
        return {
            "rc": rc,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "census": payload.get("census"),
            "label": payload.get("label"),
            "interval": [payload.get("interval_lo"), payload.get("interval_hi")],
        }
    raise ValueError(f"unknown item kind {kind!r}")


def after_pass(workload, items, verdicts, state):
    """Untimed checks that need the program: order re-checks, store size.

    They run outside the timed region and outside any trace.  Enumeration
    order is re-checked here because enumerate_level_prefix checks it with
    an assert, which `python -O` would drop.
    """
    from salemforge.algebraic import LESS, compare

    facts = {}
    if workload == "spectrum-order":
        for item, verdict in zip(items, verdicts):
            if item[0] == "level" and verdict is not None:
                entries = state.entries[tuple(item[1:])]
                verdict["order"] = all(
                    compare(a.value, b.value) == LESS and a.key.tuple < b.key.tuple
                    for a, b in zip(entries, entries[1:])
                )
    if workload == "classify-cache":
        try:
            with open(state.store_path, encoding="utf-8") as fh:
                facts["store_records"] = sum(1 for line in fh if line.strip())
        except FileNotFoundError:
            facts["store_records"] = 0
    return facts


def run_pass(workload, items, store_path, tracer=None):
    """One timed pass.  Returns (wall seconds, item spans, verdicts, facts).

    An item span is [start, end, CPU seconds]: start and end on
    time.perf_counter, which on Linux is the system-wide monotonic clock,
    so the parent can line spans up with its own samples of CPU speed.

    A verdict is None when its item raised; the error text goes to
    `facts["errors"]`.  A tracer, if given, is installed for the timed
    items only.
    """
    state = PassState(store_path)
    verdicts, item_spans, errors = [], [], []
    clock, cpu = time.perf_counter, time.process_time
    if tracer is not None:
        tracer.install()
    try:
        start = clock()
        for n, item in enumerate(items):
            if tracer is not None:
                tracer.item = n
            t0, c0 = clock(), cpu()
            try:
                verdicts.append(run_item(item, state))
            except Exception as exc:  # a raising item is a failed item, not a crash
                verdicts.append(None)
                errors.append(f"{item}: {type(exc).__name__}: {exc}")
            item_spans.append([t0, clock(), cpu() - c0])
        wall = clock() - start
    finally:
        if tracer is not None:
            tracer.remove()
    facts = after_pass(workload, items, verdicts, state)
    facts["errors"] = errors
    return wall, item_spans, verdicts, facts
