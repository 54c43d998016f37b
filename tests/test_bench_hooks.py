"""The benchmark still runs against the library.

``bench/spans.py`` wraps library functions by name from outside the
package, and ``bench/workloads.py`` calls the library's public API.  A
rename or an API change in the library would otherwise surface only when
the benchmark runs, so these tests load those files by path, resolve
each name the tracer uses, and run one pass of every workload against
the facts in ``bench/expected.json``.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from frobring.rings import FiniteRing

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """Import ``bench/<name>.py`` by path, as module ``bench_<name>``."""
    module_name = f"bench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[module_name]


def test_every_name_the_bench_tracer_wraps_resolves():
    spans = _load("spans")
    wrapped = [(mod, fn) for mod, fn, _ in spans.SPANNED]
    wrapped += [("cyclotomic", "from_exponent_counts"), ("characters", "is_generating")]
    for mod, fn in wrapped:
        assert callable(getattr(importlib.import_module(f"frobring.{mod}"), fn, None)), (
            f"frobring.{mod}.{fn}")
    for meth in ("describe", *spans.KERNEL_METHODS):
        assert callable(getattr(FiniteRing, meth, None)), f"FiniteRing.{meth}"


@pytest.mark.parametrize("name", ["square6561", "table512", "chain_queries"])
def test_one_pass_of_each_workload_gives_the_expected_facts(name, tmp_path):
    workloads, run = _load("workloads"), _load("run")
    expected = json.loads((BENCH / "expected.json").read_text())[name]["facts"]
    result = workloads.WORKLOADS[name](1, tmp_path).run_pass()
    assert result.errors == []
    checked, failures = run.check_facts(result.facts, expected)
    assert failures == []
    assert checked >= len(expected)
