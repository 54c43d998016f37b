"""Every library name the benchmark's tracer wraps still resolves.

``bench/spans.py`` wraps library functions by name from outside the
package.  A rename in the library would otherwise surface only when the
benchmark runs, so this test loads that file by path and resolves each
name it uses.
"""

import importlib
import importlib.util
from pathlib import Path

from frobring.rings import FiniteRing

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_bench_tracer_wraps_resolves():
    spans = _load_spans()
    wrapped = [(mod, fn) for mod, fn, _ in spans.SPANNED]
    wrapped += [("cyclotomic", "from_exponent_counts"), ("characters", "is_generating")]
    for mod, fn in wrapped:
        assert callable(getattr(importlib.import_module(f"frobring.{mod}"), fn, None)), (
            f"frobring.{mod}.{fn}")
    for meth in ("describe", *spans.KERNEL_METHODS):
        assert callable(getattr(FiniteRing, meth, None)), f"FiniteRing.{meth}"
