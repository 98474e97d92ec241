"""One benchmark process: set-up probe or one ``coverlab.cli.run`` call.

    python3 perfbench/worker.py setup CONFIG
    python3 perfbench/worker.py run CONFIG RESULT_JSON [--trace]

``setup`` imports ``coverlab.cli``, loads the config and parses its map,
then exits; the caller times the whole process.  ``run`` times config in
to ``summary.json`` out (after imports) and writes the wall time, exit
code and peak RSS to RESULT_JSON; with ``--trace`` it also writes the
per-function span numbers.  The outputs directory named in the config is
resolved against the working directory the caller chose.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


# Counts recorded at the same boundaries as the spans.
COUNTERS = {
    "count.find_islands": lambda args, kwargs, res: {
        "islands": len(res[0]), "ambiguous": res[1]
    },
    "trace.complement_components": lambda args, kwargs, res: {
        "components": len(res.components)
    },
    "count.mean_degree": lambda args, kwargs, res: {
        "points": res.n_samples + res.n_resampled, "n_resampled": res.n_resampled
    },
    "trace.export_svg": lambda args, kwargs, res: {"bytes": Path(args[0]).stat().st_size},
    "trace.export_json": lambda args, kwargs, res: {"bytes": Path(args[0]).stat().st_size},
}


def main(argv):
    mode, config = argv[0], argv[1]
    from coverlab import cli

    if mode == "setup":
        cfg = cli.load_config(config)
        cli.parse_map(cfg.map_source)
        return 0

    result_path = Path(argv[2])
    tracer = None
    if "--trace" in argv[3:]:
        from tracer import Tracer

        tracer = Tracer(COUNTERS)
        tracer.install()

    start = time.perf_counter()
    cfg = cli.load_config(config)
    exit_code = cli.run(cfg)
    wall = time.perf_counter() - start

    result = {
        "exit_code": exit_code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
