"""End-to-end command-line pipeline on a small scenario."""

import csv

import pytest

from relusafe import cli
from relusafe import graph as gr
from relusafe import montecarlo as mc
from relusafe import scenario as sc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = sc.make_demo_scenario(2, [6, 4], seed=1,
                                     obstacles=[((5.8, 1.8), (7.2, 3.2))])
    (root / "scen.json").write_text(sc.dump_scenario(scenario))
    code = cli.main(["build-graph", "--scenario", str(root / "scen.json"),
                     "--dq", "0.05", "--jobs", "1",
                     "--out", str(root / "graph.txt")])
    assert code == 0
    return root


def test_verify_writes_csv(workdir):
    out = workdir / "bounds.csv"
    code = cli.main(["verify", "--graph", str(workdir / "graph.txt"),
                     "--scenario", str(workdir / "scen.json"),
                     "--horizon", "4", "--merge-p", "0.05",
                     "--mode", "merge+tpn", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {r["cell_id"] for r in rows} == {"c0", "c1", "c2", "c3"}
    assert {int(r["k"]) for r in rows} == set(range(5))
    assert all(0.0 <= float(r["bound"]) <= 1.0 for r in rows)


def test_simulate_outputs_estimate(workdir, capsys):
    code = cli.main(["simulate", "--scenario", str(workdir / "scen.json"),
                     "--cell", "c0", "--k", "3", "--n", "500", "--seed", "9"])
    assert code == 0
    out = capsys.readouterr().out
    header, data = out.strip().splitlines()
    assert header == "cell_id,k,n_samples,hit_fraction,stddev"
    assert data.startswith("c0,3,500,")


def test_render_from_csv(workdir):
    bounds = workdir / "bounds.csv"
    if not bounds.exists():
        cli.main(["verify", "--graph", str(workdir / "graph.txt"),
                  "--scenario", str(workdir / "scen.json"),
                  "--horizon", "4", "--merge-p", "0.05",
                  "--mode", "merge+tpn", "--out", str(bounds)])
    out = workdir / "map.ppm"
    code = cli.main(["render", "--scenario", str(workdir / "scen.json"),
                     "--bounds", str(bounds), "--k", "4", "--out", str(out)])
    assert code == 0
    assert out.read_bytes().startswith(b"P6\n")


def test_refine_auto_roundtrip(workdir):
    bounds = workdir / "bounds.csv"
    code = cli.main(["refine", "--scenario", str(workdir / "scen.json"),
                     "--graph", str(workdir / "graph.txt"),
                     "--bounds", str(bounds), "--auto", "--steps", "2",
                     "--out", f"{workdir}/scen2.json,{workdir}/graph2.txt"])
    assert code == 0
    refined = sc.load_scenario((workdir / "scen2.json").read_text())
    assert refined.num_cells == 5
    # The refined pair keeps working downstream.
    code = cli.main(["verify", "--graph", str(workdir / "graph2.txt"),
                     "--scenario", str(workdir / "scen2.json"),
                     "--horizon", "3", "--merge-p", "0.05",
                     "--mode", "naive", "--out", str(workdir / "bounds2.csv")])
    assert code == 0


def test_refine_manual_needs_no_bounds(workdir, monkeypatch):
    """``--cell``/``--target`` without ``--bounds`` splits the named cell
    and reads no bounds CSV."""
    def no_bounds(*args):
        raise AssertionError("manual refine parsed a bounds CSV")

    monkeypatch.setattr(cli.verifier, "bounds_from_csv", no_bounds)
    code = cli.main(["refine", "--scenario", str(workdir / "scen.json"),
                     "--graph", str(workdir / "graph.txt"),
                     "--cell", "c0", "--target", "c1", "--steps", "2",
                     "--out", f"{workdir}/scen3.json,{workdir}/graph3.txt"])
    assert code == 0
    refined = sc.load_scenario((workdir / "scen3.json").read_text())
    assert [c.id for c in refined.partition] == ["c0a", "c0b", "c1", "c2", "c3"]
    graph = gr.load_graph((workdir / "graph3.txt").read_text(), refined)
    assert len(graph.cell_nodes()) == 5


def test_floor_edge_refinement_exits_with_message(workdir):
    """Refining an edge at the precision floor ends in a one-line message,
    not a traceback."""
    with pytest.raises(SystemExit) as info:
        cli.main(["refine", "--scenario", str(workdir / "scen.json"),
                  "--graph", str(workdir / "graph.txt"),
                  "--cell", "c0", "--target", "unsafe",
                  "--out", f"{workdir}/scen4.json,{workdir}/graph4.txt"])
    message = str(info.value.code)
    assert message.startswith("refinement error: ") and "\n" not in message
    assert "precision floor" in message


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_v1_graph_exits_with_message(workdir, version):
    """A graph document in a retired format, v1 or v2, is rejected with a
    one-line message naming the format."""
    retired = f"relusafe-graph-{version}"
    head, _, payload = (workdir / "graph.txt").read_text().partition("\n")
    (workdir / f"graph_{version}.txt").write_text(
        head.replace(gr.GRAPH_FORMAT, retired) + "\n" + payload)
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--graph", str(workdir / f"graph_{version}.txt"),
                  "--scenario", str(workdir / "scen.json"),
                  "--horizon", "2", "--out", str(workdir / f"bounds_{version}.csv")])
    message = str(info.value.code)
    assert message.startswith("graph error: ") and "\n" not in message
    assert retired in message


def test_compare_report(workdir):
    out = workdir / "report.csv"
    code = cli.main(["compare", "--scenario", str(workdir / "scen.json"),
                     "--graph", str(workdir / "graph.txt"),
                     "--horizon", "3", "--merge-p", "0.05",
                     "--n", "1000", "--seed", "3", "--out", str(out)])
    assert code == 0  # zero exit = no soundness violation
    lines = out.read_text().splitlines()
    assert lines[0] == ("row,cell_id,k,plain,merge_tpn,refined_plain,"
                        "refined_merge_tpn,mc_estimate")
    rows = list(csv.DictReader(lines))
    kinds = {r["row"] for r in rows}
    assert kinds == {"bound", "mean", "max", "mc"}
    # Tightened modes never exceed the plain recursion; MC stays below all.
    for r in rows:
        if r["row"] == "bound":
            assert float(r["merge_tpn"]) <= float(r["plain"]) + 1e-12
        if r["row"] == "mc":
            assert float(r["mc_estimate"]) <= float(r["plain"]) + 0.05
    # One horizon-3 rollout set gives what a separate run per k gives.
    scenario = sc.load_scenario((workdir / "scen.json").read_text())
    mc_rows = [r for r in rows if r["row"] == "mc"]
    assert [int(r["k"]) for r in mc_rows] == [1, 2, 3]
    for r in mc_rows:
        probe = [c.id for c in scenario.partition].index(r["cell_id"])
        est = mc.estimate_true_pk(scenario, probe, int(r["k"]), 1000, 3)
        assert r["mc_estimate"] == repr(est.hit_fraction)


@pytest.mark.parametrize("missing", ["--scenario", "--graph"])
def test_missing_input_file_exits_with_message(workdir, missing):
    """A path that does not exist ends in a one-line message, not a traceback."""
    paths = {"--scenario": str(workdir / "scen.json"), "--graph": str(workdir / "graph.txt")}
    paths[missing] = str(workdir / "missing.txt")
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", *[x for kv in paths.items() for x in kv],
                  "--horizon", "2", "--out", str(workdir / "bounds_missing.csv")])
    message = str(info.value.code)
    assert message.startswith("file error: ") and "\n" not in message
    assert "missing.txt" in message


def test_unwritable_output_exits_with_message(workdir):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--graph", str(workdir / "graph.txt"),
                  "--scenario", str(workdir / "scen.json"), "--horizon", "1",
                  "--out", str(workdir / "no_such_dir" / "bounds.csv")])
    message = str(info.value.code)
    assert message.startswith("file error: ") and "\n" not in message


def test_unknown_cell_rejected(workdir):
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--scenario", str(workdir / "scen.json"),
                  "--cell", "zz", "--k", "1"])


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--k", "-1")])
def test_simulate_bad_input_exits_with_message(workdir, flag, value):
    argv = {"--n": "10", "--k": "2", "--seed": "0"}
    argv[flag] = value
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--scenario", str(workdir / "scen.json"),
                  "--cell", "c0"] + [x for kv in argv.items() for x in kv])
    message = str(info.value.code)
    assert message.startswith("monte-carlo error: ") and "\n" not in message
