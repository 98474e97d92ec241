"""coverlab benchmark: ``verify-all`` on generated configs, one process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/coverlab`` must be there).
With ``--trace 0`` it times ``setup_s`` in fresh processes, then runs the
workload's config through ``coverlab.cli.run`` in fresh processes until
the next run would overrun ``--seconds``, and reports medians.  With
``--trace 1`` it makes one untraced and one traced run and reports the
per-layer numbers of the traced one.  Every run's ``summary.json`` and
``report.csv`` are checked against ``reference.json``.  The last line of
standard output is one JSON object; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import (
    OUTPUTS_DIR,
    WORKLOADS,
    changed_values,
    closed_form_errors,
    config_text,
    expected_values,
    mc_seed,
    read_outputs,
    verdict_slots,
)

SETUP_PROCESSES = 7
RUN_TIMEOUT_S = 150
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verdicts_passed": "share",
}

_CALLS_AND_SELF = (
    "count.find_roots",
    "count.find_islands",
    "march.extract",
    "march.mask_euler_characteristic",
    "expr.evaluate_array",
    "expr.evaluate",
)
_TOTALS = (
    "trace.build_preimage_graph",
    "trace.trace_preimage",
    "metric.select_radii",
    "verify.verify_mean_degree",
    "verify.verify_island_theorem",
    "verify.verify_asymptotic_equality",
    "verify.verify_rh_inequality",
    "verify.verify_euler_identity",
    "verify.verify_island_in_component",
    "trace.select_perturbation",
    "trace.arc_test_integral",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _CALLS_AND_SELF},
    **{f"{name}.self_s": "s" for name in _CALLS_AND_SELF},
    "count.count_preimages.calls": "count",
    "count.mean_degree.points_per_s": "1/s",
    "count.mean_degree.n_resampled": "count",
    "count.find_islands.islands": "count",
    "count.find_islands.ambiguous": "count",
    "trace.complement_components.calls_per_radius": "count",
    "trace.complement_components.self_s": "s",
    "trace.complement_components.components": "count",
    "trace.complement_components.self_s_per_component": "s",
    "metric.area.calls_per_radius": "count",
    "metric.area.self_s": "s",
    "metric.boundary_length.calls_per_radius": "count",
    "metric.boundary_length.self_s": "s",
    **{f"{name}.total_s": "s" for name in _TOTALS},
    "trace.export_svg.bytes": "B",
    "trace.export_svg.self_s": "s",
    "trace.export_json.bytes": "B",
    "trace.export_json.self_s": "s",
    "cli.run.self_s": "s",
    "trace.span_coverage": "share",
    "trace.overhead_s": "s",
    "verdicts_failed": "share",
    "outputs_changed": "count",
}


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def run_worker(args, cwd):
    """Run worker.py to completion (killed and reaped on timeout)."""
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=RUN_TIMEOUT_S,
        check=False,
    )


def time_setup(workdir):
    start = time.perf_counter()
    proc = run_worker(["setup", "config.txt"], workdir)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return elapsed


def run_once(workdir, trace):
    """One ``cli.run`` in a fresh process; returns the worker's result dict."""
    shutil.rmtree(workdir / OUTPUTS_DIR, ignore_errors=True)
    result_file = workdir / "result.json"
    result_file.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = run_worker(
        ["run", "config.txt", result_file.name] + (["--trace"] if trace else []), workdir
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not result_file.exists():
        return {"error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}",
                "elapsed_s": elapsed}
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result["elapsed_s"] = elapsed
    return result


def check_run(result, workdir, workload, seed, reference):
    """Adds verdict slots and output checks to `result`; returns its problems."""
    if "error" in result:
        return [f"run raised: {result['error']}"]
    problems = []
    if result["exit_code"] == 3:
        problems.append("exit code 3 (numeric error during a stage)")
    summary, rows = read_outputs(workdir / OUTPUTS_DIR)
    if summary["config"]["seed"] != mc_seed(seed):
        problems.append(f"config seed {summary['config']['seed']} != {mc_seed(seed)}")
    changed = changed_values(summary, rows, expected_values(reference, workload, seed))
    if changed:
        problems.append(f"{len(changed)} values differ from the reference: {changed[:8]}")
    bad_radii = closed_form_errors(workload, rows)
    if bad_radii:
        problems.append(f"a(r) misses the closed form at r = {bad_radii}")
    result["outputs_changed"] = len(changed)
    result["slots"] = verdict_slots(summary, rows)
    result["n_radii"] = len(rows)
    result["outputs"] = {
        name: (workdir / OUTPUTS_DIR / name).read_bytes()
        for name in ("summary.json", "report.csv")
    }
    return problems


def per_layer_metrics(traced, untraced):
    trace = traced["trace"]
    stats, counts = trace["functions"], trace["counts"]
    n_radii = max(traced["n_radii"], 1)

    def stat(name, key):
        return stats[name][key]

    metrics = {}
    for name in _CALLS_AND_SELF:
        metrics[f"{name}.calls"] = stat(name, "calls")
        metrics[f"{name}.self_s"] = stat(name, "self_s")
    for name in _TOTALS:
        metrics[f"{name}.total_s"] = stat(name, "total_s")
    mean_s = stat("count.mean_degree", "total_s")
    cc_self = stat("trace.complement_components", "self_s")
    components = counts.get("trace.complement_components.components", 0)
    run_total, run_self = stat("cli.run", "total_s"), stat("cli.run", "self_s")
    slots = traced["slots"]
    metrics.update({
        "count.count_preimages.calls": stat("count.count_preimages", "calls"),
        "count.mean_degree.points_per_s":
            counts.get("count.mean_degree.points", 0) / mean_s if mean_s else 0.0,
        "count.mean_degree.n_resampled": counts.get("count.mean_degree.n_resampled", 0),
        "count.find_islands.islands": counts.get("count.find_islands.islands", 0),
        "count.find_islands.ambiguous": counts.get("count.find_islands.ambiguous", 0),
        "trace.complement_components.calls_per_radius":
            stat("trace.complement_components", "calls") / n_radii,
        "trace.complement_components.self_s": cc_self,
        "trace.complement_components.components": components,
        "trace.complement_components.self_s_per_component":
            cc_self / components if components else 0.0,
        "metric.area.calls_per_radius": stat("metric.area", "calls") / n_radii,
        "metric.area.self_s": stat("metric.area", "self_s"),
        "metric.boundary_length.calls_per_radius":
            stat("metric.boundary_length", "calls") / n_radii,
        "metric.boundary_length.self_s": stat("metric.boundary_length", "self_s"),
        "trace.export_svg.bytes": counts.get("trace.export_svg.bytes", 0),
        "trace.export_svg.self_s": stat("trace.export_svg", "self_s"),
        "trace.export_json.bytes": counts.get("trace.export_json.bytes", 0),
        "trace.export_json.self_s": stat("trace.export_json", "self_s"),
        "cli.run.self_s": run_self,
        "trace.span_coverage": (run_total - run_self) / traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "verdicts_failed": slots.count(False) / len(slots) if slots else 0.0,
        "outputs_changed": traced["outputs_changed"],
    })
    return metrics


def measure(workload, seed, seconds, trace, workdir, reference):
    (workdir / "config.txt").write_text(config_text(workload, seed), encoding="utf-8")
    runs = []

    def one(traced):
        result = run_once(workdir, traced)
        result["problems"] = check_run(result, workdir, workload, seed, reference)
        runs.append(result)
        return result

    if trace:
        untraced, traced = one(False), one(True)
        if "outputs" in traced and untraced.get("outputs") != traced["outputs"]:
            traced["problems"].append("traced outputs differ from untraced outputs")
    else:
        setup = [time_setup(workdir) for _ in range(SETUP_PROCESSES)]
        start = time.perf_counter()
        while not one(False)["problems"]:
            typical = statistics.median(r["elapsed_s"] for r in runs)
            if time.perf_counter() - start + typical > seconds:
                break

    problems = [line for r in runs for line in r["problems"]]
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    for r in runs:
        if "slots" in r:
            print(f"run: wall_s {r['wall_s']:.4f} exit {r['exit_code']} "
                  f"verdicts_failed {r['slots'].count(False)}/{len(r['slots'])} "
                  f"outputs_changed {r['outputs_changed']}")
    metrics, units = {}, PER_LAYER if trace else END_TO_END
    if all("slots" in r for r in runs):
        if trace:
            metrics = per_layer_metrics(traced, untraced)
        else:
            slots = [ok for r in runs for ok in r["slots"]]
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in runs),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
                "verdicts_passed": slots.count(True) / len(slots),
            }
    doc = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r["problems"]),
        "metrics": {},
    }
    for name, value in metrics.items():
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        print(f"{name} {value:.6g} {units[name]}")
        doc["metrics"][name] = {"value": value, "unit": units[name]}
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coverlab" / "cli.py").is_file():
        print(f"no coverlab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        doc = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs still use it
            workdir.parent.rmdir()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
