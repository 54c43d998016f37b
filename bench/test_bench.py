"""Tests of the benchmark itself: its correctness gate, counters and compare mode.

    python3 -m pytest bench/test_bench.py -q

These run whole workload passes (about two minutes in all), so they are
kept out of the library's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from spans import Tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))
EXPECTED = json.loads((run.BENCH_DIR / "expected.json").read_text())


def _copy_bench(dest: Path) -> None:
    shutil.copy(run.ROOT / "BENCHMARK.json", dest)
    (dest / "bench").mkdir()
    for f in run.BENCH_DIR.iterdir():
        if f.is_file():
            shutil.copy(f, dest / "bench")


def _run(cwd: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_seeds_give_the_expected_facts(workload, tmp_path):
    facts = [WORKLOADS[workload](seed, tmp_path).run_pass().facts for seed in (1, 2)]
    assert facts[0] == facts[1]
    checked, failures = run.check_facts(facts[0], EXPECTED[workload]["facts"])
    assert failures == []
    assert checked >= len(EXPECTED[workload]["facts"])


def test_tampered_fact_is_reported(tmp_path):
    _copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(run.SRC)
    expected = json.loads(json.dumps(EXPECTED))
    expected["table512"]["facts"]["units"] += 1
    (tmp_path / "bench" / "expected.json").write_text(json.dumps(expected))
    out = _run(tmp_path, "table512")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert not report["correct"]
    assert report["failed"] >= 1
    assert "FAILED units: got 24, expected 25" in out.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    _copy_bench(tmp_path)
    out = _run(tmp_path, "table512")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_traced_counts_repeat_and_the_library_is_restored(tmp_path):
    import frobring.duality

    workload = WORKLOADS["table512"](5, tmp_path)
    traced = run.run_passes(workload, 0, Tracer()) + run.run_passes(workload, 0, Tracer())
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for _, m, _ in traced]
    assert counts[0] == counts[1]
    assert counts[0]["duality.tables"] == 3
    assert counts[0]["characters.search_tries"] >= 1
    assert not hasattr(frobring.duality.krawtchouk_table, "__wrapped__")


def test_reduction_count_self_check():
    tracer = Tracer()
    per_table = EXPECTED["square6561"]["counts"]["reductions_per_table"]
    assert per_table == 7 * 6561
    with tracer.span("duality.krawtchouk"):
        tracer.count("cyclotomic.reduce_calls", per_table - 1)
    checked, failures = run.table_reduction_failures([(None, None, tracer.export(0))],
                                                     per_table)
    assert checked == 1
    assert len(failures) == 1 and str(per_table - 1) in failures[0]


def test_compare_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert compare.verdict(steady, steady, 0.2, True) == "within bound"
    assert compare.verdict(steady, [v * 1.5 for v in steady], 0.2, True) == "worse"
    assert compare.verdict(steady, [v * 1.5 for v in steady], 0.2, False) == "within bound"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(steady, noisy, 0.2, True) == "unresolved"
    assert compare.verdict(noisy, [v / 10 for v in steady], 0.2, True) == "within bound"
