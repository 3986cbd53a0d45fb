"""One cold benchmark process: set up, run one pass cold, optionally warm.

Usage: child.py <json spec>, where the spec holds workload, seed, mode
("setup", "run", "cold", "traced" or "check"), store_dir and
trace_path (where a traced child writes its spans, or null).  Mode "check" runs the workload's untimed check
items once instead of a pass.  The child prints "READY <CPU seconds so
far>" once salemforge is imported, the seeded inputs exist and the empty
store is created; that is its set-up time.  It then prints one JSON line with
the pass results and exits.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(spec):
    if sys.flags.optimize:
        print("refusing to run under -O: asserts in salemforge decide verdicts", file=sys.stderr)
        return 3
    import salemforge  # noqa: F401  (set-up cost: the package and its CLI)
    import salemforge.cli  # noqa: F401
    from salemforge import polys
    from salemforge.cache import SpectrumStore

    import workloads

    inputs = workloads.make_inputs(spec["workload"], spec["seed"])
    items = (workloads.check_items if spec["mode"] == "check" else workloads.pass_items)(spec["workload"], inputs)
    cold_store = SpectrumStore(os.path.join(spec["store_dir"], "cold.jsonl"))
    print(f"READY {time.process_time()}", flush=True)
    if spec["mode"] == "setup":
        return 0

    tracer = None
    if spec["mode"] == "traced":
        import tracing

        tracer = tracing.Tracer()
        before = polys.sturm_chain.cache_info()
    out = {}
    wall, item_spans, verdicts, facts = workloads.run_pass(spec["workload"], items, str(cold_store.path), tracer)
    out["cold"] = {"wall_s": wall, "item_spans": item_spans, "verdicts": verdicts, "facts": facts}
    if tracer is not None:
        after = polys.sturm_chain.cache_info()
        chain = (after.hits - before.hits, after.misses - before.misses)
        out["layers"] = tracing.summarize(tracer.spans, tracer.counters, wall, chain)
        out["spans"] = len(tracer.spans)
        if spec["trace_path"]:
            tracer.write(spec["trace_path"])
    if spec["mode"] == "run":
        warm_store = os.path.join(spec["store_dir"], "warm.jsonl")
        wall, item_spans, verdicts, facts = workloads.run_pass(spec["workload"], items, warm_store)
        out["warm"] = {"wall_s": wall, "item_spans": item_spans, "verdicts": verdicts, "facts": facts}
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
