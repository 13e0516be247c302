#!/usr/bin/env python3
"""Per-layer attribution of a traced benchmark run.

Reads the Chrome trace_event JSON that adept_perfbench writes with
--trace 1 and derives the span-based per-layer metrics:

    runtime.plan.self_frac.<kind>   self time of the plan.s<i>.<kind>@<device>
                                    step spans inside the high-rate serving
                                    windows, as a share of plan.run time there
    runtime.plan.self_frac.dispatch plan.run self time (between steps), same base
    comm.allreduce.self_frac        comm.allreduce time over all rank time
                                    (search.step + train.epoch spans, all ranks)

Self time is a span's duration minus the part its child spans on the same
thread cover, as tools/trace_summary.py computes it.

    python3 perfbench/attribute.py .bench_build/perfbench/run/trace.json
"""

import json
import os
import re
import sys
from collections import defaultdict

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
from trace_summary import load_trace, summarize  # noqa: E402

STEP = re.compile(r"^plan\.s\d+\.(\w+)@")


def plan_self_frac(events, kinds):
    """Step-kind self-time shares of plan.run inside the high-rate windows."""
    windows = [(ev["ts"], ev["ts"] + ev["dur"]) for ev in events
               if ev["name"] == "bench.serve.high"]
    if not windows:
        raise ValueError("trace has no bench.serve.high span")
    # Only plan spans: they nest properly on each worker thread, while the
    # server's request spans start at enqueue time and overlap them.
    inside = [ev for ev in events
              if ev["name"].startswith("plan.")
              and any(lo <= ev["ts"] and ev["ts"] + ev["dur"] <= hi
                      for lo, hi in windows)]
    total, self_time, _ = summarize(inside)
    run_us = total.get("plan.run", 0.0)
    if run_us <= 0:
        raise ValueError("no plan.run spans inside bench.serve.high")
    by_kind = defaultdict(float)
    for name, us in self_time.items():
        m = STEP.match(name)
        if m:
            by_kind[m.group(1)] += us
    out = {f"runtime.plan.self_frac.{k}": by_kind[k] / run_us for k in kinds}
    out["runtime.plan.self_frac.dispatch"] = self_time.get("plan.run", 0.0) / run_us
    return out


def comm_self_frac(events):
    total, _, _ = summarize(events)
    rank_us = total.get("search.step", 0.0) + total.get("train.epoch", 0.0)
    if rank_us <= 0:
        raise ValueError("trace has no search.step / train.epoch spans")
    return {"comm.allreduce.self_frac": total.get("comm.allreduce", 0.0) / rank_us}


def attribute(trace_path, kinds):
    events = load_trace(trace_path)
    out = plan_self_frac(events, kinds)
    out.update(comm_self_frac(events))
    return out


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    events = load_trace(sys.argv[1])
    kinds = sorted({m.group(1) for ev in events
                    for m in [STEP.match(ev["name"])] if m})
    print(json.dumps(attribute(sys.argv[1], kinds), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
