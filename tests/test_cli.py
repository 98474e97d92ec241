import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from coverlab import _march, cli, count, metric
from coverlab.cli import (
    ConfigError,
    ExperimentConfig,
    build_config,
    load_config,
    main,
    parse_complex,
    parse_config_text,
    run,
)
from coverlab.count import WindingError
from coverlab.expr import INF, parse_map
from coverlab.verify import VERIFIERS, ExperimentReport, verdicts_from_report

GOOD_CONFIG = """\
# identity-map experiment with the figure-eight and its focus disks
map = z
radii.mode = explicit-list
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
"""


def test_parse_complex():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("inf") is parse_complex(" Infinity") is parse_complex("oo") is INF
    assert parse_complex("3") == 3 + 0j
    with pytest.raises(ValueError):
        parse_complex("wat")
    for text in ("nan", "1e999", "1+nani", "-1e400i"):
        with pytest.raises(ValueError, match="not finite"):
            parse_complex(text)


@pytest.mark.parametrize(
    ("lines", "key"),
    [
        ("disk.1.center = nan\ndisk.1.radius = 0.1\n", "disk.1.center"),
        ("disk.1.center = 1e999\ndisk.1.radius = 0.1\n", "disk.1.center"),
        ("graph.node = nan\n", "graph.node"),
        ("graph.node = 0.5+nani\n", "graph.node"),
        ("chart.moebius = 1, 0, nan, 1\nchart.x_range = 0.7, 1.3\nchart.t_range = -0.1, 0.1\n",
         "chart.moebius"),
    ],
    ids=["disk-nan", "disk-overflow", "node-nan", "node-nan-imaginary", "moebius-nan"],
)
def test_non_finite_literals_are_rejected_by_their_key(lines, key):
    # a literal that is not finite is no point, and only inf, infinity and
    # oo name the point at infinity
    with pytest.raises(ConfigError, match="not finite") as exc:
        parse_config_text("map = z\nradii.list = 2\n" + lines)
    assert exc.value.field_path == key


def test_config_parse_roundtrip():
    cfg = parse_config_text(GOOD_CONFIG)
    assert cfg.map_source == "z"
    assert cfg.radii_list == [2.0]
    assert len(cfg.disks) == 3
    assert cfg.graph.node == 0.5j
    assert cfg.resolution == 256
    resolved = cfg.resolved()
    assert resolved["map"] == "z"
    assert resolved["slack"]["c1"] == 4.0


def test_config_two_disks_error():
    text = GOOD_CONFIG.replace("disk.3.center = inf\n", "").replace(
        "disk.3.radius = 0.112837916709551\n", ""
    )
    with pytest.raises(ConfigError, match="exactly 3 disks"):
        parse_config_text(text)


def test_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config_text("map = z\nfrobnicate = 1\n")


def test_config_overlapping_disks():
    text = GOOD_CONFIG.replace("disk.2.center = 0.5+0.5i", "disk.2.center = -0.5+0.5i")
    with pytest.raises(ConfigError, match="disjoint"):
        parse_config_text(text)


@pytest.mark.parametrize(
    ("disks", "message"),
    [
        ({1: "0", 3: "inf", 5: "0.01"}, "disk.5: overlaps disk.1 "),
        ({0: "0", 1: "0.01", 2: "inf"}, "disk.1: overlaps disk.0 "),
    ],
)
def test_config_errors_name_disks_by_their_number(disks, message):
    text = "map = z\n" + "".join(
        f"disk.{k}.center = {c}\ndisk.{k}.radius = 0.1\n" for k, c in disks.items()
    )
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert str(info.value).startswith(message)


def test_config_bad_map():
    with pytest.raises(ConfigError, match="map"):
        parse_config_text("map = exp(2*z\nradii.list = 1\n")


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("definitely-missing.cfg")


def test_cli_profile_output(capsys):
    code = main(["profile", "--map", "z", "--r", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "a=0.5" in out
    assert "l=1.77245385091" in out  # sqrt(pi)


def test_cli_islands_exp(capsys):
    code = main(["islands", "--map", "exp(z)", "--r", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "islands=13" in out


def test_cli_missing_config_exit_2(capsys):
    assert main(["verify-all", "--config", "missing.cfg"]) == 2


def test_cli_unknown_flag_exit_2(capsys):
    assert main(["profile", "--map", "z", "--frob", "1"]) == 2


def test_cli_missing_map_exit_2(capsys):
    assert main(["profile"]) == 2


def test_run_identity_config_passes(tmp_path):
    cfg = parse_config_text(GOOD_CONFIG + f"outputs = {tmp_path}/out\n")
    code = run(cfg)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["errors"] == []
    assert all(v["passed"] for v in summary["verifiers"].values()), summary["verifiers"]
    assert code == 0
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "profile.csv").exists()
    assert (tmp_path / "out" / "graph_2.svg").exists()
    # summary is self-describing
    assert summary["config"]["map"] == "z"
    assert summary["config"]["resolution"] == 256


def _output_files(outdir):
    """{relative path: bytes} of every file under `outdir`."""
    return {str(p.relative_to(outdir)): p.read_bytes() for p in sorted(outdir.rglob("*")) if p.is_file()}


def test_run_deterministic_outputs(tmp_path):
    # summary.json records the output directory, so both runs write to one
    cfg = parse_config_text(GOOD_CONFIG + f"outputs = {tmp_path}/out\n")
    code = run(cfg)
    first = _output_files(tmp_path / "out")
    assert run(cfg) == code
    assert _output_files(tmp_path / "out") == first
    assert sorted(first) == [
        "graph_2.json", "graph_2.svg", "islands_2.svg", "profile.csv", "report.csv", "summary.json",
    ]


def test_every_output_file_has_lf_line_ends(tmp_path, monkeypatch):
    # a text file opened without newline= ends its lines with os.linesep;
    # open such files as Windows would, with CRLF, so a writer that leaves
    # newline= out shows here
    real_open = open

    def crlf_open(file, mode="r", *args, newline=None, **kwargs):
        if "w" in mode and "b" not in mode and newline is None:
            newline = "\r\n"
        return real_open(file, mode, *args, newline=newline, **kwargs)

    monkeypatch.setattr("builtins.open", crlf_open)
    run(parse_config_text(GOOD_CONFIG + f"outputs = {tmp_path}/out\n"))
    files = _output_files(tmp_path / "out")
    assert len(files) == 6
    for name, data in files.items():
        assert b"\r" not in data, name


def test_run_length_area_selected_mode(tmp_path):
    cfg = ExperimentConfig(
        map_source="exp(z)",
        radii_mode="length-area-selected",
        radii_min=4.0,
        radii_max=12.0,
        radii_count=2,
        verifiers=("mean_degree",),
        samples=120,
        outputs=str(tmp_path / "sel"),
    ).validate()
    code = run(cfg)
    summary = json.loads((tmp_path / "sel" / "summary.json").read_text())
    assert code == 0
    radii = summary["radii"]
    assert len(radii) >= 1
    assert radii == sorted(radii)


def test_selected_profile_computes_one_polar_area_per_reported_radius(tmp_path, monkeypatch):
    # the selection ranks its grid with the boundary form of a(r); the
    # profile takes a(r) from the polar `area` at each radius it reports
    area = metric.area
    calls = []

    def counted(m, r, tol=1e-7):
        calls.append((r, tol))
        return area(m, r, tol)

    monkeypatch.setattr(metric, "area", counted)
    cfg = ExperimentConfig(
        map_source="z^2",
        radii_mode="length-area-selected",
        radii_min=1.0,
        radii_max=10.0,
        radii_count=2,
        verifiers=("mean_degree",),
        samples=100,
        outputs=str(tmp_path),
    ).validate()
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert calls == [(r, cfg.tolerance) for r in summary["radii"]]
    rows = (tmp_path / "profile.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == [
        float(metric._fmt12(area(parse_map("z^2"), r, cfg.tolerance))) for r in summary["radii"]
    ]


def test_cli_graph_z3(capsys):
    code = main(["graph", "--map", "z^3", "--r", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "euler=-3" in out
    assert "identity=1" in out


def test_cli_arcs_z3(capsys):
    code = main(["arcs", "--map", "z^3", "--r", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "good=3 bad=0 suspect=0" in out


def test_cli_arcs_lifts_without_marching_squares(capsys, monkeypatch):
    def no_marching(*args, **kwargs):
        raise AssertionError("chart segments are lifted, not marched")

    monkeypatch.setattr(_march, "extract", no_marching)
    assert main(["arcs", "--map", "z^3", "--r", "2"]) == 0
    assert "good=3 bad=0 suspect=0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["arcs", "--map", "z^3", "--r", "2", "--resolution", "32"],
        ["graph", "--map", "z", "--r", "2", "--scale", "0"],
        ["graph", "--map", "z", "--r", "2", "--scale", "-1"],
        ["graph", "--map", "z", "--r", "2", "--node", "inf"],
        ["profile", "--map", "z", "--r", "abc"],
        ["profile", "--map", "z", "--r", "inf"],
    ],
    ids=[
        "coarse-resolution",
        "zero-scale",
        "negative-scale",
        "node-at-infinity",
        "radius-not-a-number",
        "radius-at-infinity",
    ],
)
def test_cli_flag_overrides_are_validated(argv, capsys):
    # a flag is checked like the same value in a config file
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_config_rejects_non_positive_radii(tmp_path, capsys):
    config = tmp_path / "radii.cfg"
    config.write_text(
        f"map = z\nradii.list = 0, 2\nverifiers = mean_degree\noutputs = {tmp_path / 'out'}\n"
    )
    assert main(["verify-all", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err


def _directory_config(tmp_path):
    return str(tmp_path)


def _latin1_config(tmp_path):
    config = tmp_path / "latin1.cfg"
    config.write_bytes("map = z  # f(z) = z, für alle z\n".encode("latin-1"))
    return str(config)


def _outputs_is_a_file_config(tmp_path):
    (tmp_path / "taken").write_text("")
    config = tmp_path / "outputs.cfg"
    config.write_text(
        f"map = z\nradii.list = 2\nverifiers = mean_degree\noutputs = {tmp_path / 'taken'}\n"
    )
    return str(config)


@pytest.mark.parametrize("make_config", [_directory_config, _latin1_config, _outputs_is_a_file_config],
                         ids=["config-is-a-directory", "config-not-utf8", "outputs-is-a-file"])
def test_file_errors_are_config_errors(make_config, tmp_path, capsys):
    assert main(["verify-all", "--config", make_config(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


# z^3 over disks at 0, 1 and inf: one island (over 0) at both radii, while
# a(r) grows from 1.04 to 1.5, so the needed slack rises from 0.04 to 0.33.
RISING_SLACK_CONFIG = """\
map = z^3
radii.list = {radii}
disk.1.center = 0
disk.1.radius = 0.112837916709551
disk.2.center = 1
disk.2.radius = 0.112837916709551
disk.3.center = inf
disk.3.radius = 0.112837916709551
resolution = 128
verifiers = islands
"""


@pytest.mark.parametrize("radii", ["0.9, 1.0", "1.0, 0.9"])
def test_islands_verdict_includes_slack_trend(tmp_path, radii):
    text = RISING_SLACK_CONFIG.format(radii=radii)
    cfg = parse_config_text(text + f"outputs = {tmp_path}\n")
    code = run(cfg)
    rows = ExperimentReport.from_csv(tmp_path / "report.csv").rows
    assert [row["island_count"] for row in rows] == [1, 1]
    assert all(
        row["island_count"] >= row["a"] * (1 - row["island_slack_allowed"]) for row in rows
    )
    assert rows[0]["island_slack_needed"] < rows[1]["island_slack_needed"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verifiers"]["islands"] == {
        "passed": False,
        "trend_ok": False,
        "worst_slack": summary["verifiers"]["islands"]["worst_slack"],
    }
    assert code == summary["exit_code"] == 1
    assert verdicts_from_report(ExperimentReport.from_csv(tmp_path / "report.csv")) == {
        "islands": False
    }


def test_run_computes_each_quantity_once(tmp_path, monkeypatch):
    """On the criterion-11 config (GOOD_CONFIG) at two radii, with three
    disks: one island_scans call for the run, which ends each (disk, radius)
    pair with find_islands."""
    names = ("area", "boundary_length", "island_scans", "find_islands", "build_preimage_graph",
             "complement_components")
    calls = dict.fromkeys(names, 0)
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("coverlab"):
            continue
        for name in names:
            fn = vars(module).get(name)
            if callable(fn):
                def counted(*args, _fn=fn, _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    text = GOOD_CONFIG.replace("radii.list = 2\n", "radii.list = 2, 3\n")
    cfg = parse_config_text(text + f"outputs = {tmp_path}\n")
    assert run(cfg) == 0
    assert calls == {
        "area": 2,
        "boundary_length": 2,
        "island_scans": 1,
        "find_islands": 6,
        "build_preimage_graph": 2,
        "complement_components": 2,
    }


def test_a_failing_radius_fails_the_stages_that_read_its_islands(tmp_path, monkeypatch, capsys):
    # the root search failing for the second disk at the second of three
    # radii: every stage that reads that radius's islands records its error,
    # the run exits 3, and the islands subcommand prints the first radius's
    # line before the error
    text = GOOD_CONFIG.replace("radii.list = 2\n", "radii.list = 1.5, 2, 3\n")
    real = count.find_roots_many

    def failing(queries):
        return [
            WindingError("cell subdivision budget exceeded")
            if p == 0.5 + 0.5j and r == count.ring_radius(2.0, 256) else roots
            for (_, p, r), roots in zip(queries, real(queries))
        ]

    monkeypatch.setattr(count, "find_roots_many", failing)
    assert run(parse_config_text(text + f"outputs = {tmp_path / 'run'}\n")) == 3
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["errors"] == [
        {"stage": stage, "error": "cell subdivision budget exceeded"}
        for stage in ("islands", "graph", "rh", "euler", "containment")
    ]
    assert summary["exit_code"] == 3
    (tmp_path / "islands.cfg").write_text(text + f"outputs = {tmp_path / 'sub'}\n")
    assert main(["islands", "--config", str(tmp_path / "islands.cfg")]) == 3
    out, err = capsys.readouterr()
    assert out.startswith("r=1.5 islands=2 per_disk=[1, 1, 0] ambiguous=0 ")
    assert out.count("\n") == 1
    assert err == "numeric error: cell subdivision budget exceeded\n"


def test_an_overflowing_entire_map_exits_3_naming_overflow(tmp_path):
    # exp(z^3) overflows on |z| = 9: the profile stage records an overflow,
    # not a pole of the map
    text = "map = exp(z^3)\nradii.list = 9\nverifiers = mean_degree\n"
    assert run(parse_config_text(text + f"outputs = {tmp_path}\n")) == 3
    (error,) = json.loads((tmp_path / "summary.json").read_text())["errors"]
    assert error["stage"] == "profile"
    assert error["error"].startswith("f overflows on |z| = 9.0 near z = ")
    assert "pole" not in error["error"]


def test_cli_import_and_mean_degree_run_load_no_scipy_numpy_random_or_numpy_polynomial(tmp_path):
    # scipy, numpy.random and numpy.polynomial are test oracles, not runtime
    # dependencies: a fresh process that imports the command line and runs
    # the Monte-Carlo verifier loads none of them (the sphere sample has its
    # own PCG64 stream, the quadrature rules are literals)
    src = Path(__file__).resolve().parents[1] / "src"
    (tmp_path / "degree.cfg").write_text(
        "map = z^3\nradii.list = 2\nverifiers = mean_degree\nsamples = 100\n"
        f"outputs = {tmp_path / 'out'}\n"
    )
    probe = (
        "import sys\nfrom coverlab import cli\n"
        "def loaded():\n"
        "    oracles = ('scipy', 'numpy.random', 'numpy.polynomial')\n"
        "    return sorted(n for n in sys.modules if n.startswith(oracles))\n"
        "print(loaded())\n"
        f"code = cli.main(['verify-all', '--config', {str(tmp_path / 'degree.cfg')!r}])\n"
        "print(code, loaded())"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out[0] == "[]"
    assert out[-1] == "0 []"


def test_graph_and_euler_run_loads_no_numpy_ma(tmp_path):
    # np.unique(x) asks np.ma.is_masked, which imports numpy.ma inside the
    # timed run; the complement's pixel set is made distinct without it
    src = Path(__file__).resolve().parents[1] / "src"
    (tmp_path / "graph.cfg").write_text(
        "map = z^5\nradii.list = 2\nresolution = 512\ngraph.node = 0.5i\ngraph.scale = 0.5\n"
        f"verifiers = graph, euler\noutputs = {tmp_path / 'out'}\n"
    )
    probe = (
        "import sys\nfrom coverlab import cli\n"
        f"code = cli.main(['verify-all', '--config', {str(tmp_path / 'graph.cfg')!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out[-1] == "0 False"


@pytest.mark.parametrize(
    "lines",
    [
        "radii.mode = length-area-selected\nradii.min = 1\nradii.max = inf\n",
        "radii.mode = length-area-selected\nradii.count = 0\n",
        "samples = 50\n",
        "seed = -1\n",
        "tolerance = -1\n",
        "tolerance = inf\n",
        "slack.c1 = nan\n",
        "slack.c2 = -1\n",
    ],
    ids=[
        "infinite-max-radius",
        "no-selected-radius",
        "too-few-samples",
        "negative-seed",
        "negative-tolerance",
        "infinite-tolerance",
        "nan-slack",
        "negative-slack",
    ],
)
def test_config_values_out_of_range_are_config_errors(lines, tmp_path, capsys):
    # rejected before any stage runs, not by the stage that trips on them
    config = tmp_path / "range.cfg"
    config.write_text(
        f"map = z\nradii.list = 2\nverifiers = mean_degree\n{lines}"
        f"outputs = {tmp_path / 'out'}\n"
    )
    assert main(["verify-all", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["graph"], ["arcs"], ["graph", "--node", "0.5i"], ["islands"]],
    ids=["graph", "arcs", "graph-node-flag", "islands"],
)
def test_subcommands_are_validated_as_their_verifier(argv, tmp_path, capsys):
    # the config has none of the sections these subcommands need
    config = tmp_path / "f.cfg"
    config.write_text("map = z^3\nradii.list = 2\n")
    assert main([argv[0], "--config", str(config), *argv[1:]]) == 2
    assert "config error" in capsys.readouterr().err


SECTIONS = {
    "disks": "".join(
        f"disk.{k}.center = {c}\ndisk.{k}.radius = 0.112837916709551\n"
        for k, c in enumerate(("1", "-1", "inf"), start=1)
    ),
    "graph": "graph.node = 0.5i\ngraph.scale = 0.5\n",
    "chart": "chart.moebius = 1, 0, 0, 1\nchart.x_range = 0.7, 1.3\nchart.t_range = -0.1, 0.1\n",
}


def test_default_verifiers_are_those_whose_sections_are_given():
    needs = [
        ("mean_degree", set()),
        ("islands", {"disks"}),
        ("graph", {"graph"}),
        ("arcs", {"chart"}),
        ("rh", {"disks"}),
        ("euler", {"graph"}),
        ("containment", {"disks", "graph"}),
    ]
    for k in range(len(SECTIONS) + 1):
        for given in itertools.combinations(SECTIONS, k):
            cfg = parse_config_text("map = z\n" + "".join(SECTIONS[s] for s in given))
            assert cfg.verifiers == tuple(
                name for name, sections in needs if sections <= set(given)
            ), given


def test_subcommands_take_the_radii_of_verify_all(tmp_path, capsys):
    config = tmp_path / "selected.cfg"
    config.write_text(
        "map = z^2\nradii.mode = length-area-selected\nradii.min = 1\nradii.max = 10\n"
        "radii.count = 2\nverifiers = mean_degree\nsamples = 100\n"
        + SECTIONS["disks"]
        + SECTIONS["chart"]
        + f"outputs = {tmp_path / 'out'}\n"
    )
    assert main(["verify-all", "--config", str(config)]) == 0
    radii = json.loads((tmp_path / "out" / "summary.json").read_text())["radii"]
    assert len(radii) == 2
    for command in ("profile", "islands", "arcs"):
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows] == [f"r={metric._fmt12(r)}" for r in radii]


EVERY_KEY_CONFIG = """\
map = z^2 + 1
radii.mode = length-area-selected
radii.list = 1.5, 4
radii.min = 2
radii.max = 9
radii.count = 4
disk.1.center = 1+0.5i
disk.1.radius = 0.05
disk.2.center = -2
disk.2.radius = 0.07
disk.3.center = inf
disk.3.radius = 0.1
graph.node = 0.25-0.5i
graph.scale = 0.75
chart.moebius = 1, 0.5i, 0, 2
chart.x_range = 0.6, 1.4
chart.t_range = -0.2, 0.1
resolution = 300
tolerance = 2e-7
seed = 11
samples = 250
outputs = results/run1
verifiers = islands, arcs, mean_degree
slack.c1 = 3.5
slack.c2 = 0.25
"""


def test_resolved_config_of_every_key():
    # summary.json's config section, recorded before the keys were declared once
    expected = {
        "map": "z^2 + 1",
        "radii": {"mode": "length-area-selected", "list": [1.5, 4.0], "min": 2.0,
                  "max": 9.0, "count": 4},
        "disks": [
            {"center": [1.0, 0.5], "radius": 0.05},
            {"center": [-2.0, 0.0], "radius": 0.07},
            {"center": "inf", "radius": 0.1},
        ],
        "resolution": 300,
        "tolerance": 2e-07,
        "seed": 11,
        "samples": 250,
        "outputs": "results/run1",
        "verifiers": ["islands", "arcs", "mean_degree"],
        "slack": {"c1": 3.5, "c2": 0.25},
        "graph": {"kind": "figure8", "node": [0.25, -0.5], "scale": 0.75},
        "chart": {
            "moebius": [[1.0, 0.0], [0.0, 0.5], [0.0, 0.0], [2.0, 0.0]],
            "x_range": [0.6, 1.4],
            "t_range": [-0.2, 0.1],
        },
    }
    resolved = parse_config_text(EVERY_KEY_CONFIG).resolved()
    # the JSON text also tells 4 from 4.0
    assert json.dumps(resolved, sort_keys=True) == json.dumps(expected, sort_keys=True)


# one malformed value per declared key
MALFORMED = {
    "map": "exp(",
    "radii.mode": "spiral",
    "radii.list": "1, x",
    "radii.min": "x",
    "radii.max": "x",
    "radii.count": "2.5",
    "resolution": "5e2",
    "tolerance": "tiny",
    "seed": "x",
    "samples": "many",
    "outputs": "",
    "verifiers": "mean_degree, bogus",
    "slack.c1": "x",
    "slack.c2": "x",
}


@pytest.mark.parametrize("key", list(cli._KEYS))
def test_malformed_value_of_every_declared_key_names_that_key(key):
    lines = {"map": "z", "radii.list": "2", key: MALFORMED[key]}
    with pytest.raises(ConfigError) as exc:
        parse_config_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    assert exc.value.field_path == key


@pytest.mark.parametrize(
    ("text", "key"),
    [
        ("map = z\ngraph.kind = figure8\n", "graph.kind"),
        ("map = z\ndisk.01.center = 0\ndisk.01.radius = 0.1\n", "disk.01.center"),
        (GOOD_CONFIG + "disk.01.center = 2\ndisk.01.radius = 0.05\n", "disk.01.center"),
    ],
    ids=["graph-kind", "disk-number-with-leading-zero", "leading-zero-next-to-its-disk"],
)
def test_config_keys_that_name_nothing_are_rejected(text, key):
    with pytest.raises(ConfigError, match="unknown configuration key") as exc:
        parse_config_text(text)
    assert exc.value.field_path == key


_CHART_LINES = "chart.x_range = 0.7, 1.3\nchart.t_range = -0.1, 0.1\n"


@pytest.mark.parametrize(
    ("text", "field_path", "message"),
    [
        ("map = z\nradii.list\n", "line 2", "expected key = value"),
        ("radii.list = 2\n", "map", "missing map definition"),
        ("map = z\nradii.list = ,\n", "radii.list", "no radii given"),
        ("map = z\nradii.list = 2\ndisk.1.center = 0\n", "disk.1", "needs both"),
        ("map = z\nradii.list = 2\ndisk.1.center = 0\ndisk.1.radius = 0.5\n", "disk.1",
         "must lie in"),
        ("map = z\nradii.list = 2\ngraph.scale = 0\n", "graph", "scale must be positive"),
        ("map = z\nradii.list = 2\nchart.moebius = 1, 0, 1\n" + _CHART_LINES, "chart",
         "4 finite coefficients"),
        ("map = z\nradii.list = 2\nchart.moebius = 1, 0, inf, 1\n" + _CHART_LINES, "chart",
         "4 finite coefficients"),
        ("map = z\nradii.list = 2\nchart.moebius = 1, 0, x, 1\n" + _CHART_LINES,
         "chart.moebius", "not a complex literal"),
        ("map = z\nradii.list = 2\nchart.moebius = 1, 0, 0, 1\nchart.t_range = -0.1, 0.1\n",
         "chart", "missing chart.x_range"),
        ("map = z\nradii.list = 2\nchart.moebius = 1, 0, 0, 1\nchart.x_range = 0.7, a\n"
         "chart.t_range = -0.1, 0.1\n", "chart", "could not convert"),
    ],
    ids=["no-equals-sign", "no-map", "empty-radii-list", "disk-without-radius",
         "disk-radius-too-large", "zero-graph-scale", "three-moebius-coefficients",
         "infinite-moebius-coefficient", "malformed-moebius-literal", "chart-without-x-range",
         "non-numeric-range"],
)
def test_config_section_errors_name_their_field(text, field_path, message):
    with pytest.raises(ConfigError, match=message) as exc:
        parse_config_text(text)
    assert exc.value.field_path == field_path


def test_config_key_given_twice_names_both_lines():
    with pytest.raises(ConfigError, match="lines 2 and 4") as exc:
        parse_config_text("map = z\nseed = 1\n# a comment\nseed = 2\n")
    assert exc.value.field_path == "seed"


def test_module_docstring_example_config_parses():
    example = cli.__doc__.split("Example::\n\n", 1)[1].split("\n\n", 1)[0]
    cfg = parse_config_text(textwrap.dedent(example))
    assert cfg.map_source == "z^5"
    assert cfg.verifiers == tuple(VERIFIERS)
