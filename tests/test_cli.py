import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coverlab import _march, metric
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
from coverlab.expr import parse_map
from coverlab.verify import ExperimentReport, verdicts_from_report

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
    assert parse_complex("inf") == "inf"
    assert parse_complex("3") == 3 + 0j
    with pytest.raises(ValueError):
        parse_complex("wat")


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


def test_run_deterministic_outputs(tmp_path):
    cfg1 = parse_config_text(GOOD_CONFIG + f"outputs = {tmp_path}/a\n")
    cfg2 = parse_config_text(GOOD_CONFIG + f"outputs = {tmp_path}/b\n")
    assert run(cfg1) == run(cfg2)
    for name in ("report.csv", "profile.csv", "graph_2.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


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


def test_selected_profile_reuses_the_selection_areas(tmp_path, monkeypatch):
    # radii_count 2 gives a selection grid of max(16, 6 * 2) = 16 radii; the
    # profile takes a(r) at the selected ones from that grid
    area = metric.area
    calls = []

    def counted(m, r, tol=1e-7):
        calls.append(r)
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
    assert len(calls) == len(set(calls)) == 16
    summary = json.loads((tmp_path / "summary.json").read_text())
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
    """On the criterion-11 config (GOOD_CONFIG), one radius and three disks."""
    names = ("area", "boundary_length", "find_islands", "build_preimage_graph",
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
    cfg = parse_config_text(GOOD_CONFIG + f"outputs = {tmp_path}\n")
    assert run(cfg) == 0
    assert calls == {
        "area": 1,
        "boundary_length": 1,
        "find_islands": 3,
        "build_preimage_graph": 1,
        "complement_components": 1,
    }


def test_cli_import_loads_no_scipy_and_loads_numpy_random():
    # scipy is a test oracle, not a runtime dependency: a fresh process that
    # imports the command line must not load it; numpy loads numpy.random
    # lazily, so metric imports it eagerly to keep it out of every run's time
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, coverlab.cli; "
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')); "
        "print('numpy.random' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out == ["[]", "True"]


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
