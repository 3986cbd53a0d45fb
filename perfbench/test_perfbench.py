"""Self-tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(fn, start, end, parent):
    return (fn, start, end, parent, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, 0.0, 10.0, -1),  # root
        span(1, 1.0, 4.0, 0),  # child of root
        span(2, 2.0, 3.0, 1),  # grandchild: charged to its parent only
        span(3, 5.0, 6.0, 0),  # second child of root
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, 0.0, 10.0, -1), span(1, 1.0, 5.0, 0), span(2, 3.0, 7.0, 0), span(3, 9.0, 12.0, 0)]
    # children cover [1, 7] and [9, 10] of the parent: 7 of its 10 seconds
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_summary_shares_and_outermost_totals():
    refine = tracing.NAMES.index("algebraic.refine")
    compare = tracing.NAMES.index("algebraic.compare")
    spans = [span(compare, 0.0, 4.0, -1), span(refine, 1.0, 2.0, 0), span(refine, 2.0, 3.0, 0)]
    m = tracing.summarize(spans, {}, 8.0, (3, 1))
    assert m["algebraic.compare.calls"] == 1
    assert m["algebraic.refine.calls"] == 2
    assert m["algebraic.compare.self_share"] == pytest.approx(25.0)
    assert m["algebraic.compare.total_share"] == pytest.approx(50.0)
    assert m["algebraic.self_share"] == pytest.approx(50.0)
    assert m["algebraic.compare.refines_per_call"] == 2
    assert m["polys.sturm_chain.hit_ratio"] == pytest.approx(0.75)
    assert m["trace.coverage"] == pytest.approx(50.0)
    assert set(m) | {"trace.overhead_ratio"} == set(tracing.metric_units())


def test_mean_speed_weighs_each_instant_by_the_nearest_probe():
    ref = run.REFERENCE_PROBE_S
    samples = [(0.0, ref), (1.0, 2 * ref), (2.0, ref)]  # half speed around t = 1
    assert run.mean_speed(0.0, 2.0, samples) == pytest.approx((0.5 + 1.0 * 0.5 + 0.5) / 2)
    assert run.mean_speed(0.75, 1.25, samples) == pytest.approx(0.5)
    assert run.mean_speed(1.25, 1.75, samples) == pytest.approx(0.75)
    assert run.mean_speed(-1.0, 0.0, samples) == pytest.approx(1.0)  # before the first probe
    assert run.mean_speed(3.0, 4.0, samples) == pytest.approx(1.0)  # after the last one
    assert run.mean_speed(1.1, 1.1, samples) == pytest.approx(0.5)  # an empty span: nearest probe
    assert run.mean_speed(0.0, 1.0, []) == 1.0
    assert run.reference_seconds([0.75, 1.25, 0.3], samples) == pytest.approx(0.15)


def _bindings():
    """Every value bound in a salemforge module namespace or a traced class."""
    import salemforge  # noqa: F401
    import salemforge.cli  # noqa: F401
    from salemforge.cache import SpectrumStore
    from salemforge.residues import ResidueElement

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "salemforge" or name.startswith("salemforge."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (SpectrumStore, ResidueElement):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def _sweep_pass(tracer=None):
    """A short structure-sweep pass: four cheap sampled orbits, one of them full."""
    inputs = {"orbits": [(4, (2, 2, 2)), (4, (2, 2, 2, 2, 2)), (4, (4, 4, 4)), (4, (2, 2, 3, 3, 3, 3))]}
    assert set(inputs["orbits"]) <= set(workloads.sweep_sample())
    return inputs, workloads.run_pass("structure-sweep", workloads.pass_items("structure-sweep", inputs), "unused.jsonl", tracer)


def test_tracer_rebinds_aliases_and_restores_every_binding():
    import salemforge
    from salemforge import algebraic, polys, residues, spectrum

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # `from .algebraic import refine` aliases see the same wrapper
        assert spectrum.refine is algebraic.refine is residues.refine is salemforge.refine
        assert spectrum.refine is not before[("salemforge.algebraic", "refine")]
        assert polys.sturm_chain.cache_info() is not None
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    _, (_, _, _, facts) = _sweep_pass(tracing.Tracer())
    assert facts["errors"] == []
    after_pass = _bindings()
    assert all(after_pass[k] is before[k] for k in before)


def test_traced_and_untraced_verdicts_agree_and_pass_the_checker():
    inputs, (_, _, plain, facts) = _sweep_pass()
    tracer = tracing.Tracer()
    _, (wall, _, traced, _) = _sweep_pass(tracer)
    assert plain == traced
    assert tracer.spans and all(s is not None for s in tracer.spans)
    assert {s[4] for s in tracer.spans} == set(range(len(plain)))  # item ids
    items = workloads.pass_items("structure-sweep", inputs)
    reference = check.load_reference()
    problems = check.pass_problems("structure-sweep", items, plain, facts, reference, 1)
    assert problems == [[]] * len(items)


def test_inputs_are_deterministic_and_differ_between_seeds():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 5) == workloads.make_inputs(workload, 5)
        json.dumps(workloads.make_inputs(workload, 5))  # children rebuild them from the seed
    for workload in ("realize", "spectrum-order", "classify-cache"):
        seen = {json.dumps(workloads.make_inputs(workload, s), sort_keys=True) for s in range(6)}
        assert len(seen) == 6, workload


def test_default_seed_inputs_are_the_acceptance_inputs():
    assert workloads.make_inputs("realize", workloads.DEFAULT_SEED)["tuple"] == [2, 3, 4, 5, 6, 7]
    # spectrum-order draws are acceptance draws with their tuples reordered
    stream = {(d, tuple(sorted(t)), t[p], a) for d, t, p, a in workloads.acceptance_stream()}
    for seed in (workloads.DEFAULT_SEED, 3):
        checks = workloads.make_inputs("spectrum-order", seed)["checks"]
        for (_, d, t, p), (_, _, _, a) in zip(checks[::2], checks[1::2]):
            assert (d, tuple(sorted(t)), t[p], a) in stream
    orbits = workloads.sweep_orbits()
    assert len(orbits) == 249 and sum(1 + len(t) == 2 * d - 1 for d, t in orbits) == 73
    sample = workloads.make_inputs("structure-sweep", 3)["orbits"]
    assert set(sample) <= set(orbits) and sorted(sample) == sorted(workloads.sweep_sample())
    sizes = sorted(3 + sum(t) for _, t in sample)
    assert sizes[0] <= 10 and sizes[-1] >= 25  # small and large matrices alike


def test_classify_ops_read_and_write_every_key_once_each():
    inputs = workloads.make_inputs("classify-cache", 7)
    ops = workloads.pass_items("classify-cache", inputs)
    keys = [json.dumps(k) for k in inputs["keys"]]
    assert sorted(json.dumps(o[1:]) for o in ops if o[0] == "miss") == sorted(keys)
    assert sorted(json.dumps(o[1:]) for o in ops if o[0] == "hit") == sorted(keys)
    first_hit = {}
    for n, op in enumerate(ops):
        first_hit.setdefault((op[0], json.dumps(op[1:])), n)
    assert all(first_hit[("miss", k)] < first_hit[("hit", k)] for k in keys)


def _altered(verdicts, index, change):
    out = copy.deepcopy(verdicts)
    change(out[index])
    return out


def test_checker_flags_altered_verdicts():
    inputs, (_, _, verdicts, facts) = _sweep_pass()
    items = workloads.pass_items("structure-sweep", inputs)
    reference = check.load_reference()

    def flagged(vs, index):
        problems = check.pass_problems("structure-sweep", items, vs, facts, reference, 1)
        return bool(problems[index]) and not any(p for i, p in enumerate(problems) if i != index)

    def census(v):
        v["census"][0] += 1

    def interval(v):
        v["interval"] = ["3", "3"]  # narrow, but does not hold the root

    def weyl(v):
        v["weyl"][1] += 1

    assert flagged(_altered(verdicts, 0, census), 0)
    assert flagged(_altered(verdicts, 1, interval), 1)
    full = next(i for i, v in enumerate(verdicts) if "weyl" in v)
    assert flagged(_altered(verdicts, full, weyl), full)
    assert flagged(verdicts[:2] + [None] + verdicts[3:], 2)


def test_checker_flags_wrong_realization_order_and_cache_verdicts():
    reference = check.load_reference()
    seed = workloads.DEFAULT_SEED
    verify = ["verify", 4, [2, 3, 4, 5, 6, 7]]
    good = {"pass": True, "sha256": reference["realize_sha256"]}
    assert check.item_problems(verify, good, reference, seed) == []
    assert check.item_problems(verify, dict(good, sha256="0" * 64), reference, seed)
    assert check.item_problems(verify, dict(good, sha256="0" * 64), reference, 1) == []  # other keys

    level = ["level", 4, 3, 10, 30]
    tuples = reference["levels"]["4,3,10,30"]
    assert check.item_problems(level, {"tuples": tuples, "order": True}, reference, 1) == []
    assert check.item_problems(level, {"tuples": tuples, "order": False}, reference, 1)
    assert check.item_problems(level, {"tuples": tuples[::-1], "order": True}, reference, 1)

    key_id, ref = next(iter(reference["classify"].items()))
    d, tup = int(key_id.split(":")[0]), [int(x) for x in key_id.split(":")[1].split(",") if x]
    mid = (Fraction(ref["lambda"][0]) + Fraction(ref["lambda"][1])) / 2
    out = {"rc": 0, "sha256": "a", "census": ref["census"], "label": ref["label"], "interval": [str(mid), str(mid)]}
    items = [["miss", d, tup], ["hit", d, tup]]
    facts = {"store_records": 1}
    assert check.pass_problems("classify-cache", items, [out, dict(out)], facts, reference, seed) == [[], []]
    bad_hit = check.pass_problems("classify-cache", items, [out, dict(out, sha256="b")], facts, reference, seed)
    assert bad_hit[0] == [] and bad_hit[1]
    assert all(check.pass_problems("classify-cache", items, [out, out], {"store_records": 2}, reference, seed))
    wrong_label = dict(out, label="salem_like" if ref["label"] != "salem_like" else "pisot_like")
    assert check.item_problems(items[0], wrong_label, reference, seed)
    # other seeds reorder the entries of the same keys, checked against the same verdicts
    reordered = ["miss", d, tup[::-1]]
    assert check.item_problems(reordered, out, reference, 1) == []
    assert check.item_problems(reordered, wrong_label, reference, 1)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
