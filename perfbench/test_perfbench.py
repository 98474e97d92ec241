"""Checks of the benchmark itself: metric names, the tracer and the empty-checkout exit.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, METRIC_NAME, PER_LAYER, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The criterion-11 determinism config of the acceptance suite.
SMALL_CONFIG = """\
map = z
radii.list = 2
disk.1.center = -0.5+0.5i
disk.1.radius = 0.055
disk.2.center = 0.5+0.5i
disk.2.radius = 0.055
disk.3.center = inf
disk.3.radius = 0.112837916709551
graph.node = 0.5i
graph.scale = 0.5
resolution = 256
seed = 3
samples = 150
verifiers = mean_degree, islands, graph, rh, euler, containment
outputs = out
"""


def _worker(tmp_path, *flags):
    (tmp_path / "config.txt").write_text(SMALL_CONFIG, encoding="utf-8")
    shutil.rmtree(tmp_path / "out", ignore_errors=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "run", "config.txt", "result.json", *flags],
        cwd=tmp_path, env=child_env(), check=True, timeout=120,
    )
    outputs = {name: (tmp_path / "out" / name).read_bytes()
               for name in ("summary.json", "report.csv")}
    return json.loads((tmp_path / "result.json").read_text(encoding="utf-8")), outputs


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    for name in [*END_TO_END, *PER_LAYER]:
        assert METRIC_NAME.fullmatch(name), name
    assert not METRIC_NAME.fullmatch("_march.extract.calls")


def test_traced_run_is_byte_identical_and_counts_repeat(tmp_path):
    _, plain = _worker(tmp_path)
    first, traced = _worker(tmp_path, "--trace")
    second, _ = _worker(tmp_path, "--trace")
    assert traced == plain

    def counts(result):
        trace = result["trace"]
        calls = {name: s["calls"] for name, s in trace["functions"].items()}
        return trace["spans"], calls, trace["counts"]

    assert counts(first) == counts(second)
    calls = counts(first)[1]
    # reached only through names imported into cli and verify
    assert calls["count.find_islands"] == 3
    assert calls["verify.verify_island_in_component"] == 1
    assert calls["cli.run"] == 1


def test_install_rebinds_every_reference():
    script = (
        "import sys, inspect\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "import coverlab.cli\n"
        "from tracer import TRACED_MODULES, Tracer\n"
        "Tracer().install()\n"
        "traced = {'coverlab.' + name for name in TRACED_MODULES}\n"
        "print([f'{n}.{a}' for n, mod in sys.modules.items() if n.startswith('coverlab')\n"
        "       for a, v in vars(mod).items()\n"
        "       if inspect.isfunction(v) and v.__module__ in traced\n"
        "       and not v.__name__.startswith('_')\n"
        "       and not hasattr(v, '__wrapped_original__')])\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poly-sweep", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
