"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload square6561 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The library is imported from the
checkout's ``src/``.  A run makes one pass of the workload, then more
while the last pass's length still fits in ``--seconds``.  Every pass's
answers are checked against ``bench/expected.json``.  With ``--trace 0`` the end-to-end
metrics of ``BENCHMARK.json`` are reported; with ``--trace 1`` half the
time runs untraced and half traced, and the per-layer metrics are
reported.  The last line of output is one JSON object; a record of the
run is appended to ``bench/results/runs.jsonl`` and, when traced, the
spans are written to ``bench/results/spans-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
IMPORT_SAMPLES = 4  # taken both before and after the passes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")


def import_seconds() -> float:
    """Time to import frobring in a fresh interpreter, as a CLI call pays it."""
    code = ("import time; t = time.perf_counter(); import frobring.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def input_record(workload, answers: dict) -> dict:
    """What the library was given, plus the size facts of the first pass."""
    from frobring.cyclotomic import totient

    record = workload.inputs()
    facts = {key: values[0] for key, values in answers.items()}
    if workload.name == "chain_queries":
        rings = {}
        for key, value in facts.items():
            expr, _, fact = key.split(" | ")
            rings.setdefault(expr, {})[fact] = value
        record["rings"] = {
            expr: {"elements": sum(f.get("block_sizes", [])),
                   "character_order": f.get("character_order"),
                   "phi": totient(f["character_order"]) if "character_order" in f else None,
                   "blocks": len(f.get("block_sizes", []))}
            for expr, f in rings.items()
        }
    else:
        order = facts.get("character_order")
        record.update({
            "elements": facts.get("elements"),
            "units": facts.get("units"),
            "character_order": order,
            "phi": totient(order) if order else None,
            "blocks": facts.get("hom_blocks"),
        })
    return record


def check_facts(answers: dict[str, list], expected: dict) -> tuple[int, list[str]]:
    """Answers checked, and one entry per answer that is wrong or missing."""
    checked, failures = 0, []
    for key, want in expected.items():
        given = answers.get(key) or [None]
        checked += len(given)
        failures += [f"{key}: got {value!r}, expected {want!r}"
                     for value in given if value != want]
    return checked, failures


def run_passes(workload, seconds: float, tracer=None) -> list:
    """At least one pass, then more while the last one's length still fits
    in ``seconds``; with a tracer, one trace per pass."""
    passes = []
    start = perf_counter()
    last = 0.0
    while not passes or perf_counter() - start + last <= seconds:
        gc.collect()  # garbage of the previous pass is not this pass's cost
        began = perf_counter()
        if tracer is not None:
            tracer.install()
            try:
                result = workload.run_pass()
            finally:
                tracer.uninstall()
            passes.append((result, tracer.layer_metrics(), tracer.export(start)))
        else:
            passes.append((workload.run_pass(), None, None))
        last = perf_counter() - began
    return passes


def median_of_medians(samples: list[list[float]]) -> float | None:
    """Median over passes of each pass's median, so the figure does not
    depend on how many passes fit in the run."""
    per_pass = [statistics.median(s) for s in samples if s]
    return statistics.median(per_pass) if per_pass else None


def end_to_end(passes, import_samples) -> dict:
    results = [p for p, _, _ in passes]
    return {
        "setup_s": statistics.median(import_samples)
        + statistics.median(r.build_s for r in results),
        "wall_s": statistics.median(r.wall_s for r in results),
        "cpu_s": statistics.median(r.cpu_s for r in results),
        "weights_ready_s": median_of_medians([r.weights_ready_s for r in results]),
        "query_p50_s": median_of_medians([r.latencies_s for r in results]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced, untraced, expected_counts: dict) -> tuple[dict, int, list[str]]:
    """Median layer times over traced passes, and the count self-checks:
    counts must repeat exactly from pass to pass."""
    layers = [m for _, m, _ in traced]
    checked, failures = 0, []
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
            continue
        metrics[name] = values[0]
        if len(values) > 1:
            checked += 1
            if len(set(values)) != 1:
                failures.append(f"{name}: count differs between passes: {values}")
    metrics["trace.overhead_frac"] = median_wall(traced) / median_wall(untraced) - 1
    per_table = expected_counts.get("reductions_per_table")
    if per_table is not None:
        tables, wrong = table_reduction_failures(traced, per_table)
        checked += tables
        failures += wrong
    return metrics, checked, failures


def median_wall(passes) -> float:
    return statistics.median(p.wall_s for p, _, _ in passes)


def table_reduction_failures(traced, per_table: int) -> tuple[int, list[str]]:
    """Tables checked, and a failure for each computed Krawtchouk table that
    did not make exactly ``per_table`` cyclotomic reductions (one per block
    entry and one per column total)."""
    made = [s["counts"]["cyclotomic.reduce_calls"]
            for _, _, spans in traced for s in spans
            if s["name"] == "duality.krawtchouk"
            and s["counts"].get("cyclotomic.reduce_calls")]
    return len(made), [f"krawtchouk table made {n} reductions, expected {per_table}"
                       for n in made if n != per_table]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "frobring" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no frobring sources under {SRC} or no {spec_path.name}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    expected_all = json.loads((BENCH_DIR / "expected.json").read_text())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_samples = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    sys.path.insert(0, str(SRC))
    import frobring

    if Path(frobring.__file__).resolve().parent != (SRC / "frobring").resolve():
        print(f"error: frobring imported from {frobring.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    expected = expected_all[args.workload]
    workload = WORKLOADS[args.workload](args.seed, RESULTS)
    if args.trace:
        from spans import Tracer

        untraced = run_passes(workload, args.seconds / 2)
        traced = run_passes(workload, args.seconds / 2, Tracer())
        passes = untraced + traced
        metrics, attempted, failures = per_layer(traced, untraced,
                                                 expected.get("counts", {}))
        wanted = spec["per_layer"]
    else:
        passes = run_passes(workload, args.seconds)
        import_samples += [import_seconds() for _ in range(IMPORT_SAMPLES)]
        metrics, attempted, failures = end_to_end(passes, import_samples), 0, []
        wanted = spec["end_to_end"]

    for result, _, _ in passes:
        checked, wrong = check_facts(result.facts, expected["facts"])
        attempted += checked + len(result.errors)
        failures += wrong + result.errors
    failed = len(failures)
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "env": environment(), "inputs": input_record(workload, passes[0][0].facts),
        "passes": len(passes), "import_samples_s": import_samples,
        "pass_wall_s": [p.wall_s for p, _, _ in passes],
        "pass_build_s": [p.build_s for p, _, _ in passes],
        "pass_latencies_s": [p.latencies_s for p, _, _ in passes],
        "failed_frac": failed / attempted, "failures": failures[:20], **report,
    }
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([s for _, _, s in traced]))

    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"{attempted} answers checked, failed_frac {failed / attempted:.4g}")
    for name, m in report["metrics"].items():
        value = "none" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name}: {value} {m['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
