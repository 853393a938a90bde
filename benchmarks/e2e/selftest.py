"""Determinism self-test (``run.py --selftest``): tiny sizes, < 20 s.

* the same seed twice gives the same ``sim_digest`` and ``sim_*`` values
  on all six workloads;
* another seed gives another digest on the kv workloads (the others'
  simulated outputs do not depend on the seed-chosen bytes and pages);
* a traced round gives the digest of the untraced one (the wrappers
  change no behaviour) and the wrappers are fully restored afterwards;
* the layers that must stay dark do: no ring call on ``sys_single``,
  ``sim`` self time only on ``nr_vspace_28c``;
* ``BENCHMARK.json`` names exactly the workloads, metrics, units and run
  length the code reports.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import END_TO_END, ROOT, RUN_SECONDS, SCRATCH, measure_round, \
    per_layer_units
from trace import Tracer, targets
from workloads import all_workloads


def check_benchmark_json(workloads: dict, problems: list) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if spec["run_seconds"] != RUN_SECONDS:
        problems.append("BENCHMARK.json run_seconds differs from run.py")


def selftest() -> int:
    problems: list[str] = []
    workloads = all_workloads(str(SCRATCH), tiny=True)
    check_benchmark_json(workloads, problems)
    tracer = Tracer()
    try:
        for name, workload in workloads.items():
            first = measure_round(workload, 1)
            again = measure_round(workload, 1)
            other = measure_round(workload, 2)
            traced = measure_round(workload, 1, tracer)
            if (first.digest, first.sim) != (again.digest, again.sim):
                problems.append(f"{name}: same seed, different outputs")
            if traced.digest != first.digest:
                problems.append(f"{name}: tracing changed the outputs")
            if name.startswith("kv_") and other.digest == first.digest:
                problems.append(f"{name}: seed 2 repeats seed 1's digest")
            spans = sum(tracer.self_s.values())
            if not 0 < spans <= traced.wall_s * 1.01:
                problems.append(f"{name}: layer self times {spans:.4f}s vs "
                                f"traced wall {traced.wall_s:.4f}s")
            if name == "sys_single" and tracer.calls["nros.syscall.ring"]:
                problems.append("sys_single entered the ring layer")
            if bool(tracer.self_s["sim"]) != (name == "nr_vspace_28c"):
                problems.append(f"{name}: sim self time "
                                f"{tracer.self_s['sim']:.4f}s")
            print(f"  {name:14s} digest {first.digest}  "
                  f"{sum(map(bool, tracer.calls.values()))} layers entered")
        leftover = [f"{owner.__name__}.{attr}"
                    for _, owner, attr in targets()
                    if hasattr(owner.__dict__[attr], "e2e_layer")]
        if leftover:
            problems.append(f"wrappers not restored: {leftover}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("ok" if not problems
                          else f"{len(problems)} problems"))
    return 1 if problems else 0

