"""Re-record the ``sim_plan`` output check's expected values.

Usage (from the repository root)::

    python3 perfbench/record_sim_plan.py

Runs one ``sim_plan`` operation per recorded seed and rewrites
``recorded_sim_plan.json``: the recommended plan's label, its
simulated step time and the simulated makespan of the executed model.
The planner and simulator are deterministic, so these values only
change when their behaviour does; re-record deliberately, and say why
in the change that does it.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402,F401  (pins BLAS threads, puts src/ on the path)
from workloads import RECORDED_PLANS, SimPlan  # noqa: E402

#: Seeds 0-31 cover the usual sweeps; 1 is the development seed and
#: 7919 the held-out seed (see README.md).
SEEDS = list(range(32)) + [7919]


def main() -> None:
    recorded = {}
    for seed in SEEDS:
        workload = SimPlan(seed)
        workload.op()
        label, plan_step_s, makespan_s = workload.results[0]
        recorded[str(seed)] = {
            "label": label,
            "plan_step_s": plan_step_s,
            "makespan_s": makespan_s,
        }
        print(seed, label, plan_step_s, makespan_s, flush=True)
    RECORDED_PLANS.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
