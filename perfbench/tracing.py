"""Per-layer tracing from outside the program: spans around public functions.

`Tracer.install` wraps each function of `LAYERS` and replaces every binding
of the original object in every loaded `salemforge` module namespace, so
calls through `from .x import f` aliases are seen too.  Methods are wrapped
on their class.  `Tracer.remove` puts every original object back.

A span is (function index, start, end, parent span index, item id).  Spans
stay in memory until the pass ends; `summarize` reduces them to per-layer
counts, self times and shares.  A span's self time is its duration minus
the part of it that its direct child spans cover.
"""

from __future__ import annotations

import json
import sys
import time

# layer -> wrapped public functions ("Class.method" for methods)
LAYERS = {
    "polys": (
        "gcd",
        "sturm_count",
        "sturm_chain",
        "eval_interval",
        "chain_variations_at",
        "square_free_decomposition",
        "divexact",
        "monic_divmod",
    ),
    "algebraic": ("isolate_largest_real_root", "refine", "refine_clear_of", "compare"),
    "residues": ("residue_is_zero", "residue_sign", "reduced_modulus_context", "ResidueElement.inverse"),
    "matrices": ("char_poly", "det", "mat_mul"),
    "census": ("unit_circle_census", "salem_pisot_label", "strip_cyclotomic_factors"),
    "jonquieres": ("verify_structure",),
    "weyl": ("is_weyl_member", "reduce"),
    "spectrum": (
        "dynamical_degree",
        "classify_entry",
        "enumerate_level_prefix",
        "verify_monotone_increase",
        "verify_append_decrease",
        "verify_limit_convergence",
    ),
    "realization": ("realization_points", "verify_realization", "check_affine_recursion", "check_eigen_system"),
    "cache": ("SpectrumStore.get", "SpectrumStore.put", "record_to_entry"),
    "cli": ("main",),
}

NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
TOTAL_SHARE = ("algebraic.compare", "cache.SpectrumStore.get")


def _bits(*fractions):
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in fractions)


def _observe_eval_interval(tracer, args, result):
    tracer.bump("polys.eval_interval.endpoint_bits_max", _bits(args[1], args[2]), max)


def _observe_refine(tracer, args, result):
    tracer.bump("algebraic.refine.out_bits_max", _bits(result.interval.lo, result.interval.hi), max)


def _observe_get(tracer, args, result):
    tracer.bump("cache.get.hits", int(result is not None))


# extra per-call observations: name -> hook(tracer, args, result)
OBSERVERS = {
    "polys.eval_interval": _observe_eval_interval,
    "algebraic.refine": _observe_refine,
    "cache.SpectrumStore.get": _observe_get,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.item = None
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def bump(self, name, value=1, combine=None):
        old = self.counters.get(name)
        self.counters[name] = value if old is None else (combine or int.__add__)(old, value)

    def _wrap(self, index, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, tracer.item)
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        for attr in ("cache_info", "cache_clear"):  # keep lru_cache introspection
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self):
        """Wrap every function of LAYERS; returns the number of rebound names."""
        modules = {n: m for n, m in list(sys.modules.items()) if n == "salemforge" or n.startswith("salemforge.")}
        replacement = {}
        for index, name in enumerate(NAMES):
            layer, _, attr = name.partition(".")
            module = modules[f"salemforge.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(index, name, original))
                continue
            original = getattr(module, attr)
            replacement[id(original)] = (original, self._wrap(index, name, original))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return len(self._patched)

    def remove(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": NAMES, "spans": self.spans}, fh)


def self_times(spans):
    """Self time of each span: its duration minus the union of its direct children."""
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def metric_units():
    """Name -> unit of every per-layer metric a traced run reports."""
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_share"] = "%"
    for name in TOTAL_SHARE:
        units[f"{name}.total_share"] = "%"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "%"
    units.update(
        {
            "polys.eval_interval.endpoint_bits_max": "bits",
            "polys.sturm_chain.hit_ratio": "ratio",
            "algebraic.refine.out_bits_max": "bits",
            "algebraic.compare.refines_per_call": "ratio",
            "residues.residue_is_zero.certificate_ratio": "ratio",
            "cache.get.records_per_call": "ratio",
            "cache.get.hit_ratio": "ratio",
            "trace.coverage": "%",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


def summarize(spans, counters, wall, chain_info):
    """Per-layer metrics of one traced pass of `wall` seconds.

    Shares are percent of the pass wall time; `chain_info` is the
    (hits, misses) change of polys.sturm_chain's lru cache over the pass.
    `trace.overhead_ratio` needs an untraced pass and is added by run.py.
    """
    selfs = self_times(spans)
    calls = [0] * len(NAMES)
    self_s = [0.0] * len(NAMES)
    total_s = [0.0] * len(NAMES)
    for span, own in zip(spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += own
        # time including children counts outermost spans of a name only
        parent = span[3]
        while parent != -1 and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        if parent == -1:
            total_s[span[0]] += span[2] - span[1]

    def idx(name):
        return NAMES.index(name)

    def children_named(parent_name, child_name):
        p, c = idx(parent_name), idx(child_name)
        return sum(1 for s in spans if s[0] == c and s[3] != -1 and spans[s[3]][0] == p)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for i, name in enumerate(NAMES):
        m[f"{name}.calls"] = calls[i]
        m[f"{name}.self_share"] = 100.0 * self_s[i] / wall
    for name in TOTAL_SHARE:
        m[f"{name}.total_share"] = 100.0 * total_s[idx(name)] / wall
    for layer in LAYERS:
        own = sum(s for i, s in enumerate(self_s) if NAMES[i].startswith(layer + "."))
        m[f"{layer}.self_share"] = 100.0 * own / wall
    m["polys.eval_interval.endpoint_bits_max"] = counters.get("polys.eval_interval.endpoint_bits_max", 0)
    m["algebraic.refine.out_bits_max"] = counters.get("algebraic.refine.out_bits_max", 0)
    m["algebraic.compare.refines_per_call"] = ratio(
        children_named("algebraic.compare", "algebraic.refine"), calls[idx("algebraic.compare")]
    )
    m["residues.residue_is_zero.certificate_ratio"] = ratio(
        len(
            {
                s[3]
                for s in spans
                if s[0] == idx("polys.gcd") and s[3] != -1 and spans[s[3]][0] == idx("residues.residue_is_zero")
            }
        ),
        calls[idx("residues.residue_is_zero")],
    )
    gets = calls[idx("cache.SpectrumStore.get")]
    m["cache.get.records_per_call"] = ratio(children_named("cache.SpectrumStore.get", "cache.record_to_entry"), gets)
    m["cache.get.hit_ratio"] = ratio(counters.get("cache.get.hits", 0), gets)
    hits, misses = chain_info
    m["polys.sturm_chain.hit_ratio"] = ratio(hits, hits + misses)
    m["trace.coverage"] = 100.0 * sum(self_s) / wall
    return m
