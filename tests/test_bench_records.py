"""The committed benchmark records (BENCH_*.json) against BENCHMARK.json.

Every perf claim quotes a before and after from one of these files, so a
record that names a workload or an end-to-end metric the benchmark does
not define, or that holds a run whose outputs failed their checks, is
refused here.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
# the keys of a run that describe it rather than measure it
RUN_FIELDS = {"side", "seed", "attempted", "failed", "correct"}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_matches_benchmark(path):
    record = json.loads(path.read_text())
    workloads = record["workloads"]
    assert workloads and set(workloads) <= WORKLOADS
    for name, workload in workloads.items():
        runs = workload["runs"]
        assert runs, name
        named = set(workload.get("summary", {}))
        for run in runs:
            named |= set(run) - RUN_FIELDS
            assert run["correct"] is True, (name, run)
        assert named <= END_TO_END, (name, named - END_TO_END)
