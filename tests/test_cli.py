import json
import warnings

import numpy as np
import pytest

from umbilic_lab import cli, immersion, verifier
from umbilic_lab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_sphere_grid(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "analyze", "--surface", "sphere:1",
                         "--grid", "10x10", "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    assert d["schema_version"] == 1
    assert len(d["rows"]) == 100
    assert d["aggregate"]["umbilic_fraction"] == 1.0
    for row in d["rows"][:5]:
        np.testing.assert_allclose(row["principal_curvatures"], [1.0, 1.0],
                                   atol=1e-9)


def test_analyze_spheroid_umbilic_localization(capsys, tmp_path):
    out = tmp_path / "spheroid.json"
    code, _, _ = run_cli(capsys, "analyze", "--surface", "ellipsoid:2,1,1",
                         "--grid", "20x20", "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    rows = d["rows"]
    best = min(rows, key=lambda r: r["defect"])
    # minimum defect sits next to an umbilic chart point (pi/2, +-pi/2)
    u = np.asarray(best["u"])
    targets = [np.array([np.pi / 2, np.pi / 2]),
               np.array([np.pi / 2, -np.pi / 2])]
    assert min(np.linalg.norm(u - t) for t in targets) < 0.25
    marked = [r for r in rows if r["is_umbilic"]]
    for r in marked:
        u = np.asarray(r["u"])
        assert min(np.linalg.norm(u - t) for t in targets) < 0.25


def test_analyze_saddle(capsys, tmp_path):
    out = tmp_path / "saddle.json"
    code, _, _ = run_cli(capsys, "analyze", "--surface",
                         "hyperbolic-paraboloid", "--grid", "5x5",
                         "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    assert d["aggregate"]["umbilic_fraction"] == 0.0
    assert d["aggregate"]["min_defect"] > 0.1  # defect > 0 everywhere


def test_analyze_csv_format(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "analyze", "--surface", "sphere:1",
                         "--grid", "3x3", "--format", "csv",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("u0,u1,h_magnitude")
    assert len(lines) == 10


def test_slice_command_sphere(capsys, tmp_path):
    out = tmp_path / "slice.json"
    code, _, _ = run_cli(capsys, "slice", "--surface", "sphere:1",
                         "--point", "1.2,0.5", "--dirs", "basis",
                         "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    assert d["identity_residual"] <= 1e-5 or d["radius"] > 1e-2
    assert d["fit_sphere"]["radius"] == pytest.approx(1.0, abs=1e-6)
    assert d["fit_sphere"]["rms"] <= 1e-8


def test_slice_command_saddle_asymptotic(capsys, tmp_path):
    out = tmp_path / "asym.json"
    code, _, _ = run_cli(capsys, "slice", "--surface", "hyperbolic-paraboloid",
                         "--point", "0,0", "--dirs", "angles:45", "--taylor",
                         "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    assert abs(d["slice_II"][0][0][0]) <= 1e-8


def test_slice_command_hyperboloid_fit(capsys, tmp_path):
    out = tmp_path / "hyp.json"
    code, _, _ = run_cli(capsys, "slice", "--surface", "hyperboloid-sheet:1",
                         "--point", "u=0,v=0", "--dirs", "basis",
                         "--radius", "0.7", "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    assert d["fit_hyperbolic"]["radius"] == pytest.approx(1.0, abs=1e-6)


def test_slice_csv_point_cloud(capsys, tmp_path):
    out = tmp_path / "cloud.csv"
    code, _, _ = run_cli(capsys, "slice", "--surface", "sphere:1",
                         "--point", "1.2,0.5", "--dirs", "random",
                         "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x0,x1,x2,t0,w0"
    pts = np.array([[float(v) for v in ln.split(",")[:3]]
                    for ln in lines[1:]])
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)


def test_verify_corollary5_exit_zero(capsys, tmp_path):
    out = tmp_path / "c5.json"
    code, _, _ = run_cli(capsys, "verify", "corollary5", "--surface",
                         "elliptic-paraboloid:1,3", "--samples", "3",
                         "--seed", "7", "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    assert d["reports"][0]["overall"] is True


def test_verify_remark4_exit_zero(capsys, tmp_path):
    out = tmp_path / "r4.json"
    code, _, _ = run_cli(capsys, "verify", "remark4", "--out", str(out))
    assert code == 0


def test_verify_geometric_failure_exit_one(capsys, tmp_path):
    # remark 4's saddle checks cannot hold on a sphere: exit code 1
    out = tmp_path / "neg.json"
    code, _, _ = run_cli(capsys, "verify", "remark4", "--surface", "sphere:1",
                         "--out", str(out))
    assert code == 1
    d = json.loads(out.read_text())
    assert d["reports"][0]["overall"] is False


def test_verify_characterization_rejection_reported(capsys, tmp_path):
    out = tmp_path / "sc.json"
    code, _, _ = run_cli(capsys, "verify", "sphere-characterization",
                         "--surface", "ellipsoid:1,2,3", "--out", str(out))
    assert code == 0  # correctly rejected == suite passes
    d = json.loads(out.read_text())
    rep = d["reports"][0]
    assert rep["overall"] is True
    assert rep["extras"]["passes_slice_test"] is False


def test_audit_cartan_verdicts(capsys, tmp_path):
    for metric, verdict in [("minkowski:4", "ConstantCurvatureCompatible"),
                            ("desitter:1", "ConstantCurvatureCompatible"),
                            ("perturbed-minkowski:0.1", "Obstructed")]:
        out = tmp_path / "audit.json"
        code, _, _ = run_cli(capsys, "audit-cartan", "--metric", metric,
                             "--points", "3", "--out", str(out))
        assert code == 0
        d = json.loads(out.read_text())
        assert d["verdict"] == verdict, metric


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    d = json.loads(out)
    assert any(e["id"] == "hyperboloid-sheet:1" for e in d["entries"])


def test_unknown_surface_exit_2_with_diagnostic(capsys):
    code, out, err = run_cli(capsys, "analyze", "--surface", "spehre:1")
    assert code == 2
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["code"] == "unknown-catalog-id"
    assert "sphere" in diag["message"]


def test_malformed_point_exit_2(capsys):
    code, _, err = run_cli(capsys, "slice", "--surface", "sphere:1",
                           "--point", "banana", "--dirs", "basis")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["code"] == "invalid-input"


def test_analyze_default_grid_covers_every_parameter(capsys, tmp_path):
    # the default was "10x10", which a 3-parameter surface rejected
    out = tmp_path / "a.json"
    code, _, _ = run_cli(capsys, "analyze", "--surface", "sphere:1,3",
                         "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    assert d["grid"] == [10, 10, 10]
    assert len(d["rows"]) == 1000


@pytest.mark.parametrize("surface,grid", [
    ("ellipsoid:1,2,3,4", "2x2"),   # 3 parameters, 2 counts
    ("sphere:1", "3x3x3"),          # 2 parameters, 3 counts
    ("sphere:1", "0x3"),
    ("sphere:1", "-4"),
    ("sphere:1", "2.5x2"),
])
def test_analyze_bad_grid_exit_2(capsys, surface, grid):
    code, out, err = run_cli(capsys, "analyze", "--surface", surface,
                             "--grid", grid)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == "invalid-input"


@pytest.mark.parametrize("argv", [
    # 2 parameters, 3 counts: was cut to the first two, 4 points tested
    ["verify", "sphere-characterization", "--surface", "sphere:1",
     "--grid", "2x2x9"],
    # zero counts were replaced by the defaults
    ["audit-cartan", "--metric", "minkowski:4", "--points", "0"],
    ["audit-cartan", "--metric", "minkowski:4", "--samples", "0"],
    ["verify", "theorem2", "--surface", "sphere:1", "--samples", "0"],
    ["slice", "--surface", "sphere:1", "--samples", "0"],
    ["slice", "--surface", "sphere:1", "--s", "0"],
])
def test_bad_counts_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == "invalid-input"


@pytest.mark.parametrize("argv", [["verify", "remark4"],
                                  ["audit-cartan", "--metric", "minkowski:4"],
                                  ["catalog"]])
def test_format_flag_only_on_analyze_and_slice(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == 2


def test_config_file_defaults(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"surface": "sphere:1", "grid": "3x3"}))
    out = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, "analyze", "--surface", "sphere:2",
                         "--config", str(conf), "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    assert d["surface"] == "sphere:2"   # flag wins over config
    assert d["grid"] == [3, 3]          # config fills the gap


def test_config_unknown_key_exit_2(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"grdi": "2x2"}))
    code, out, err = run_cli(capsys, "analyze", "--surface", "sphere:1",
                             "--config", str(conf))
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert diag["code"] == "invalid-input"
    assert "grdi" in diag["message"]


def test_cli_deterministic_reports(capsys, tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"det{i}.json"
        code, _, _ = run_cli(capsys, "verify", "theorem2", "--surface",
                             "sphere:1", "--samples", "3", "--seed", "42",
                             "--out", str(out))
        assert code == 0
        d = json.loads(out.read_text())
        for rep in d["reports"]:
            rep["runtime_ms"] = 0
        outs.append(json.dumps(d, sort_keys=True))
    assert outs[0] == outs[1]


def _refuse_constant(text):
    raise ValueError(f"non-strict JSON constant {text}")


def one_strict_json_line(err):
    lines = err.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0], parse_constant=_refuse_constant)


@pytest.mark.parametrize("argv,code", [
    (("analyze", "--surface", "graph:1/x0", "--grid", "3"), "non-finite-value"),
    (("analyze", "--surface", "sphere:1e308", "--grid", "2"),
     "non-finite-value"),
    (("slice", "--surface", "sphere:1", "--point", "nan,0.5"), "invalid-input"),
])
def test_non_finite_input_one_strict_diagnostic(capsys, argv, code):
    # graph:1/x0 is infinite at x0 = 0; sphere:1e308 overflows its metric
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exit_code, out, err = run_cli(capsys, *argv)
    assert exit_code == 2 and out == ""
    assert [str(w.message) for w in caught] == []
    assert one_strict_json_line(err)["code"] == code


def test_diagnostic_writes_non_finite_numbers_as_strings(capsys):
    cli._diagnostic("left-domain", "outside",
                    {"parameter": [float("nan"), 0.5], "q": float("-inf")})
    diag = one_strict_json_line(capsys.readouterr().err)
    assert diag["input"] == {"parameter": ["nan", 0.5], "q": "-inf"}


def test_verify_all_bad_grid_exits_before_any_suite(capsys, monkeypatch):
    def no_suite_may_run(im, u):
        raise AssertionError("a suite ran before the grid was checked")

    monkeypatch.setattr(verifier, "shape_report", no_suite_may_run)
    code, out, err = run_cli(capsys, "verify", "all", "--grid", "3x3x3")
    assert code == 2 and out == ""
    diag = one_strict_json_line(err)
    assert diag["code"] == "invalid-input" and "3x3x3" in diag["message"]


def test_verify_all_tol_reaches_every_suite(capsys, monkeypatch, tmp_path):
    # point suites and remark 4 are stubbed; the characterizations run on
    # one grid point per surface
    seen = []

    def stub(suite_id):
        def run(im, q=None, seed=0, surface_id="", **kwargs):
            seen.append((suite_id, kwargs.get("tol")))
            point = verifier.PointVerdict(parameter=[0.0], residuals={
                "defect": 0.0}, passed=True)
            return verifier.VerdictReport(
                suite_id=suite_id, surface_id=surface_id, points_tested=1,
                per_point=[point], overall=True,
                tolerances={"tol": kwargs.get("tol", float("nan"))}, seed=seed)
        return run

    for sid in list(verifier.POINT_SUITES):
        monkeypatch.setitem(verifier.POINT_SUITES, sid, stub(sid))
    monkeypatch.setattr(verifier, "verify_remark4", stub("remark4"))
    out = tmp_path / "all.json"
    code, _, _ = run_cli(capsys, "verify", "all", "--tol", "1e-300",
                         "--samples", "1", "--grid", "1", "--out", str(out))
    assert code in (0, 1)
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == sum(map(len, verifier.SUITE_TARGETS.values()))
    for rep in reports:
        key = "tol_fit" if rep["suite_id"].endswith("characterization") else "tol"
        assert rep["tolerances"][key] == 1e-300, rep["suite_id"]
    assert seen and all(tol == 1e-300 for _sid, tol in seen)


def test_analyze_computes_its_grid_in_one_stacked_pass(capsys, monkeypatch):
    calls = []

    def counted(im, u, _frames=immersion.frames):
        calls.append(np.shape(u))
        return _frames(im, u)

    monkeypatch.setattr(immersion, "frames", counted)
    code, out, _ = run_cli(capsys, "analyze", "--surface", "ellipsoid:1,2,3",
                           "--grid", "4x4")
    assert code == 0 and len(json.loads(out)["rows"]) == 16
    assert calls == [(16, 2)]
