import math

import pytest

from coverlab.expr import parse_map
from coverlab.count import find_islands
from coverlab.lifting import ResolutionError
from coverlab.metric import SphericalDisk, build_profile
from coverlab.trace import GraphSpec, build_preimage_graph, complement_components
from coverlab.verify import (
    REPORT_COLUMNS,
    VERIFIERS,
    ExperimentReport,
    radius_contexts,
    verdicts_from_report,
    verify_asymptotic_equality,
    verify_containment,
    verify_euler_identity,
    verify_island_in_component,
    verify_island_theorem,
    verify_mean_degree,
    verify_rh_inequality,
)

RHO = 0.2 / math.sqrt(math.pi)


def contexts(src, radii, resolution=512, disks=(), graph_spec=None):
    m = parse_map(src)
    return radius_contexts(m, build_profile(m, radii, tol=1e-6), resolution, disks, graph_spec)


@pytest.fixture(scope="module")
def z5_disks():
    return [SphericalDisk.of(c, RHO) for c in (0, 1, "inf")]


@pytest.fixture(scope="module")
def z5_contexts(z5_disks):
    return contexts("z^5", [2.0, 5.0, 10.0], 512, z5_disks)


@pytest.fixture(scope="module")
def z5_islands(z5_contexts):
    return verify_island_theorem(z5_contexts)


def test_island_theorem_z5(z5_islands):
    res = z5_islands
    assert res.passed
    assert res.trend_ok
    for row in res.rows:
        assert row["island_count"] == 6
        assert row["island_count"] >= row["a"] * (1 - row["island_slack_allowed"])
        assert row["ramification"] == 4


def test_island_theorem_requires_three_disks():
    with pytest.raises(ValueError, match="3 disks"):
        verify_island_theorem(contexts("z", [1.0]))


def test_island_theorem_identity():
    disks = [SphericalDisk.of(c, RHO) for c in (0, 1, -1)]
    res = verify_island_theorem(contexts("z", [4.0, 8.0], 256, disks))
    assert res.passed
    assert all(row["island_count"] == 3 for row in res.rows)


def test_rh_inequality_z5(z5_contexts):
    res = verify_rh_inequality(z5_contexts)
    assert res.passed
    row10 = res.rows[-1]
    assert row10["rh_lhs"] == 5  # 1 + ramification 4
    assert row10["rh_rhs"] >= 10.0  # 2 a ~ 10 plus slack


def test_rh_identity_map():
    disks = [SphericalDisk.of(c, RHO) for c in (0, 1, -1)]
    res = verify_rh_inequality(contexts("z", [2.0, 5.0], 256, disks))
    assert res.passed


def test_mean_degree_verifier():
    res = verify_mean_degree(contexts("z^3", [2.0, 10.0]), n_samples=200, seed=5)
    assert res.passed
    assert res.trend_ok


def test_graph_verifier_z3():
    res = verify_asymptotic_equality(
        contexts("z^3", [3.0], 512, graph_spec=GraphSpec(node=0.5j, scale=0.5))
    )
    assert res.passed
    assert res.rows[0]["graph_euler"] == -3


def test_euler_and_containment_verifiers():
    g8 = GraphSpec(node=0.5j, scale=0.5)
    m = parse_map("z^3")
    disks = [
        SphericalDisk.of(g8.foci[0], 0.055),
        SphericalDisk.of(g8.foci[1], 0.055),
        SphericalDisk.of("inf", RHO),
    ]
    pg = build_preimage_graph(m, g8, 4.0, 512)
    comps = complement_components(pg, 4.0, 512)
    eu = verify_euler_identity(pg, comps)
    assert eu.passed
    islands = []
    for k, disk in enumerate(disks):
        isl, amb = find_islands(m, disk, 4.0, 512)
        assert amb == 0
        for rec in isl:
            rec.disk_index = k
        islands.extend(isl)
    cont = verify_island_in_component(comps, islands, g8, disks)
    assert cont.passed
    assert len(cont.rows) == 6  # six interior lobe lifts


def test_containment_raises_when_island_centres_are_blocked():
    # exp(z) at r = 40, resolution 512: 11 of the 25 island centres land on
    # pixels the graph blocks, which would read as contained in no component
    disks = [SphericalDisk.of(c, 0.05) for c in (1 + 0.25j, -1 + 0.25j)]
    ctxs = contexts("exp(z)", [40.0], 512, disks + [SphericalDisk.of("inf", RHO)],
                    GraphSpec(node=0.25j, scale=1.0))
    with pytest.raises(ResolutionError, match="retry with a finer resolution"):
        verify_containment(ctxs)


# ---------------------------------------------------------------------------
# report round trip


def test_report_csv_roundtrip_and_verdicts(tmp_path, z5_islands):
    report = ExperimentReport()
    for row in z5_islands.rows:
        report.merge_row(
            row["r"],
            {
                "a": row["a"],
                "l": row["l"],
                "island_count": row["island_count"],
                "degree_sum": row["degree_sum"],
                "ramification": row["ramification"],
                "ambiguous_islands": row["ambiguous_islands"],
                "island_slack_allowed": row["island_slack_allowed"],
                "island_slack_needed": row["island_slack_needed"],
                "rh_lhs": 1 + row["ramification"],
                "rh_rhs": 2 * row["a"] + 4 * row["l"],
                "resolution": 512,
            },
        )
    path = tmp_path / "report.csv"
    text = report.to_csv(path)
    assert text.splitlines()[0].startswith("r,a,l,ratio")
    back = ExperimentReport.from_csv(path)
    verdicts = verdicts_from_report(back)
    assert verdicts["islands"] is True
    assert verdicts["rh"] is True
    # ratio column is consistent to 12 digits
    for row in back.rows:
        assert abs(row["ratio"] - row["l"] / row["a"]) < 5e-12 * max(1.0, row["ratio"])


def test_report_header_holds_every_verifier_column():
    assert ",".join(REPORT_COLUMNS) == (
        "r,a,l,ratio,mean_degree,mean_stderr,mean_err,mean_allowed,"
        "island_count,degree_sum,ramification,ambiguous_islands,"
        "island_slack_allowed,island_slack_needed,graph_euler,good_arcs,"
        "bad_arcs,suspect_arcs,graph_ratio,graph_err,graph_allowed,chi_c0,"
        "sum_chi_c,euler_identity,rh_lhs,rh_rhs,t_star,coarea_lhs,coarea_rhs,"
        "arc_integral,resolution"
    )
    written = {c for verifier in VERIFIERS.values() for c in verifier.columns}
    assert written <= set(REPORT_COLUMNS)
    assert set(REPORT_COLUMNS) - written == {"r", "a", "l", "ratio", "resolution"}


def test_verdict_failure_detected(tmp_path):
    report = ExperimentReport()
    report.merge_row(
        1.0,
        {
            "a": 5.0,
            "l": 0.1,
            "island_count": 1,  # far below a (1 - slack)
            "degree_sum": 1,
            "ramification": 0,
            "ambiguous_islands": 0,
            "island_slack_allowed": 0.1,
            "island_slack_needed": 0.8,
            "resolution": 512,
        },
    )
    path = tmp_path / "bad.csv"
    report.to_csv(path)
    verdicts = verdicts_from_report(ExperimentReport.from_csv(path))
    assert verdicts["islands"] is False
