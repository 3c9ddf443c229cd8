"""Self-test of the benchmark itself.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

It checks that

* a tiny-scale run of every workload, traced and untraced, emits every
  metric ``BENCHMARK.json`` names, with its unit, and passes the gate,
* the correctness gate fails on a planted wrong reference, both on its
  own and inside a measuring run,
* the workload seed is an argument: the same seed gives the same request
  lists and a different seed gives different ones.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402


def check_metrics_emitted() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    problems = []
    for workload in WORKLOADS:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if completed.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit "
                                f"{completed.returncode}: {completed.stderr[-2000:]}")
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: gate {result}")
            for metric in names:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{workload} trace={trace}: no {metric['name']}")
                elif got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{workload} trace={trace}: {metric['name']} = {got}")
            extra = set(result["metrics"]) - {m["name"] for m in names}
            if extra:
                problems.append(f"{workload} trace={trace}: unnamed {sorted(extra)}")
    return problems


def check_gate_fails_on_planted_reference() -> list:
    problems = []
    if gate.check_prediction(100.0, 100.0 * (1 + 0.5 * gate.RELATIVE_TOLERANCE)) is not None:
        problems.append("gate rejects an answer within tolerance")
    for served, reference in ((100.0, 100.0 * (1 + 2 * gate.RELATIVE_TOLERANCE)),
                              (float("nan"), 100.0), (-1.0, -1.0), (0.0, 0.0),
                              (float("inf"), float("inf"))):
        if gate.check_prediction(served, reference) is None:
            problems.append(f"gate accepts {served!r} against {reference!r}")

    def planted(session, spec, platform):
        value, nodes = gate.reference_prediction(session, spec, platform)
        return value * 1.01, nodes

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        worker.build(workdir, "cold-novel-kernels", 5)
        outcome = worker.measure(workdir, "cold-novel-kernels", 5, 0.2, False,
                                 60.0, reference=planted)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome["failed"] != outcome["attempted"] or outcome["attempted"] < 1:
        problems.append(f"planted wrong reference: {outcome}")
    return problems


def check_seeded_lists() -> list:
    problems = []
    for name in WORKLOADS:
        def lists(seed):
            workload = make_workload(name, seed)
            return json.dumps([workload.warmup(), workload.round(0),
                               workload.round(1)])
        if lists(7) != lists(7):
            problems.append(f"{name}: seed 7 gives different lists")
        if lists(7) == lists(8):
            problems.append(f"{name}: seeds 7 and 8 give the same lists")
    return problems


def main() -> int:
    os.chdir(ROOT)
    failed = False
    for check in (check_seeded_lists, check_gate_fails_on_planted_reference,
                  check_metrics_emitted):
        problems = check()
        failed = failed or bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {check.__name__}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
