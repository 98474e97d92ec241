"""Record reference.json from the source tree this checkout holds.

    python3 perfbench/record.py

Runs every workload untraced and stores every value of its
``summary.json`` and ``report.csv``.  A workload that runs the
Monte-Carlo ``mean_degree`` verifier is run for each of the ``MC_SEEDS``
seeds, and values equal across them are stored once; any other workload
is run for seeds 0 and 1, which must agree.  The committed reference was
recorded at the commit that added the benchmark, before any change to
``src/``.  Re-record only in a change that means to change outputs, and
say so there.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

from run import HERE, ROOT, run_once
from workloads import MC_SEEDS, OUTPUTS_DIR, WORKLOADS, config_text, flatten, read_outputs

sys.path.insert(0, str(ROOT / "src"))
from coverlab.verify import _INT_COLUMNS  # noqa: E402


def outputs_for(workload, seed):
    workdir = ROOT / ".perfbench_work" / f"record-{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        (workdir / "config.txt").write_text(config_text(workload, seed), encoding="utf-8")
        result = run_once(workdir, trace=False)
        if "error" in result or result["exit_code"] == 3:
            raise RuntimeError(f"{workload} seed {seed}: {result}")
        return flatten(*read_outputs(workdir / OUTPUTS_DIR), _INT_COLUMNS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record(workload, pool):
    seeds = range(MC_SEEDS) if "mean_degree" in WORKLOADS[workload] else (0, 1)
    values = dict(zip(seeds, pool.map(lambda s: outputs_for(workload, s), seeds)))
    shared = {key: value for key, value in values[0].items()
              if all(v.get(key) == value for v in values.values())}
    by_seed = {str(seed): {k: v for k, v in vals.items() if k not in shared}
               for seed, vals in values.items()}
    if len(seeds) < MC_SEEDS:
        if any(by_seed.values()):
            raise RuntimeError(f"{workload}: outputs depend on the seed")
        by_seed = {}
    return {"shared": shared, "by_seed": by_seed}


def main():
    with ThreadPoolExecutor(max_workers=2) as pool:
        reference = {name: record(name, pool) for name in WORKLOADS}
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
