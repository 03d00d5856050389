import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from umbilic_lab import cli, immersion, slicer, verifier
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
    # more directions than the surface has were cut to m
    ["slice", "--surface", "sphere:1", "--s", "3"],
    ["slice", "--surface", "sphere:1", "--s", "3", "--dirs", "random"],
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
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 2 and out == ""
    assert one_strict_json_line(err)["code"] == "invalid-input"


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


def test_reports_write_non_finite_numbers_as_null(capsys):
    # two flat cylinder slices at seed 109 have an infinite fit_rms
    code, out, _ = run_cli(capsys, "verify", "sphere-characterization",
                           "--surface", "cylinder:1", "--seed", "109")
    assert code == 0 and out.count("\n") == 1
    report = json.loads(out, parse_constant=_refuse_constant)["reports"][0]
    assert report["extras"]["max_fit_residual"] is None
    assert None in [v for p in report["per_point"] for v in p["residuals"].values()]


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
        def plan(im, q=None, seed=0, **kwargs):
            seen.append((suite_id, kwargs.get("tol")))
            yield None, [], None            # no slices to trace
            point = verifier.PointVerdict(parameter=[0.0], residuals={
                "defect": 0.0}, passed=True)
            return verifier.VerdictReport(
                suite_id=suite_id, surface_id=im.name, points_tested=1,
                per_point=[point], overall=True,
                tolerances={"tol": kwargs.get("tol", float("nan"))}, seed=seed)
        return verifier._planned(plan)

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


def test_too_deep_an_expression_exits_2_with_one_expression_error(capsys):
    # 500 terms nest 500 levels deep: was a RecursionError traceback, exit 1
    surface = "graph:" + "+".join(["x0"] * 500)
    code, out, err = run_cli(capsys, "analyze", "--surface", surface)
    assert code == 2 and out == ""
    assert one_strict_json_line(err)["code"] == "expression-error"


@pytest.mark.parametrize("argv", [
    ["analyze", "--surface", "sphere:1", "--grid", "2", "--tol", "nan"],
    ["analyze", "--surface", "sphere:1", "--grid", "2", "--tol", "-1"],
    ["verify", "theorem2", "--surface", "sphere:1", "--samples", "2",
     "--tol", "nan"],
    ["audit-cartan", "--metric", "sphere:1", "--points", "1", "--tol", "nan"],
    ["audit-cartan", "--metric", "sphere:1", "--points", "1", "--tol", "-1"],
    ["audit-cartan", "--metric", "sphere:1", "--points", "1", "--tol", "0"],
    ["slice", "--surface", "sphere:1", "--radius", "nan"],
    ["slice", "--surface", "sphere:1", "--radius", "-0.5"],
    # non-finite angles failed in the frame code ("SVD did not converge")
    ["slice", "--surface", "sphere:1", "--dirs", "angles:nan"],
    ["slice", "--surface", "sphere:1", "--dirs", "angles:30,-inf"],
])
def test_floats_must_be_finite_and_positive(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    diag = one_strict_json_line(err)
    assert diag["code"] == "invalid-input" and argv[-2] in diag["message"]


@pytest.mark.parametrize("value", ["1e-6", True, -2, float("inf")])
def test_config_floats_are_checked_too(capsys, tmp_path, value):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"tol": value}))
    code, out, err = run_cli(capsys, "analyze", "--surface", "sphere:1",
                             "--grid", "2", "--config", str(conf))
    assert code == 2 and out == ""
    assert one_strict_json_line(err)["code"] == "invalid-input"


@pytest.mark.parametrize("argv", [["slice", "--surface", "sphere:1", "--tol", "1"],
                                  ["catalog", "--seed", "3"],
                                  ["catalog", "--tol", "1"]])
def test_flags_that_nothing_reads_are_gone(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    diag = one_strict_json_line(err)
    assert diag["code"] == "invalid-input" and argv[-2] in diag["message"]


def test_analyze_still_takes_seed(capsys):
    code, _, _ = run_cli(capsys, "analyze", "--surface", "sphere:1", "--grid", "2",
                         "--seed", "3")
    assert code == 0


@pytest.mark.parametrize("argv,flag", [
    (["slice", "--surface", "sphere:1", "--dirs", "angles:abc"], "--dirs"),
    (["slice", "--surface", "sphere:1", "--point", "banana"], "--point"),
    (["analyze", "--surface", "sphere:1", "--grid", "2xa"], "--grid"),
    (["verify", "sphere-characterization", "--surface", "sphere:1",
      "--grid", "2x"], "--grid"),
    (["slice", "--surface", "sphere:1", "--dirs", "bogus"], "--dirs"),
    (["slice", "--surface", "sphere:1,3", "--dirs", "angles:45"], "--dirs"),
    # angles that are not at right angles failed as degenerate-subspace
    (["slice", "--surface", "sphere:1", "--dirs", "angles:30,60"], "--dirs"),
    (["slice", "--surface", "sphere:1", "--dirs", "angles:0,90,180"], "--dirs"),
    # --s was ignored next to angles
    (["slice", "--surface", "sphere:1", "--s", "2", "--dirs", "angles:30"], "--s"),
])
def test_unparseable_numbers_name_their_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    diag = one_strict_json_line(err)
    assert diag["code"] == "invalid-input" and flag in diag["message"]


@pytest.mark.parametrize("s", [[], ["--s", "2"]])
def test_slice_angles_at_right_angles_trace_one_slice_of_each(capsys, s):
    code, out, _ = run_cli(capsys, "slice", "--surface", "sphere:1", "--samples",
                           "3", "--dirs", "angles:30,120", *s)
    assert code == 0
    assert len(json.loads(out)["spec"]["tangent_directions"]) == 2


def test_slice_s2_on_two_samples_per_axis_is_an_ill_conditioned_fit(capsys):
    # a 5 x 5 ball grid cannot determine the quartic model of an s = 2 slice
    code, out, err = run_cli(capsys, "slice", "--surface", "sphere:1", "--s", "2",
                             "--samples", "2")
    assert code == 2 and out == ""
    assert one_strict_json_line(err)["code"] == "ill-conditioned-fit"


@pytest.mark.parametrize("conf,flag", [({"grid": 3}, "--grid"),
                                       ({"grid": "3xb"}, "--grid"),
                                       ({"point": [0.5, 0.5]}, "--point")])
def test_config_text_values_go_through_the_same_parsers(capsys, tmp_path,
                                                        conf, flag):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    command = "analyze" if "grid" in conf else "slice"
    code, out, err = run_cli(capsys, command, "--surface", "sphere:1",
                             "--config", str(path))
    assert code == 2 and out == ""
    diag = one_strict_json_line(err)
    assert diag["code"] == "invalid-input" and flag in diag["message"]


# each one row over the cap; no command may build a grid this large
@pytest.mark.parametrize("argv", [
    ["analyze", "--surface", "sphere:1", "--grid", f"1x{slicer.MAX_ROWS + 1}"],
    ["verify", "sphere-characterization", "--surface", "sphere:1",
     "--grid", f"{slicer.MAX_ROWS + 1}x1"],
    # (2 * 158 + 1)^2 = 100,489 seeds
    ["slice", "--surface", "sphere:1", "--s", "2", "--samples", "158"],
])
def test_row_cap_rejects_before_any_grid_is_built(capsys, monkeypatch, argv):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built past the row cap")

    monkeypatch.setattr(np, "meshgrid", no_grid)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    diag = one_strict_json_line(err)
    assert diag["code"] == "invalid-input" and str(slicer.MAX_ROWS) in diag["message"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--surface", "ellipsoid:2,1,1", "--grid", "4x3"],
    ["slice", "--surface", "sphere:1", "--samples", "3"],
    ["verify", "remark4"],
    ["audit-cartan", "--metric", "desitter:1", "--points", "2"],
    ["catalog"]])
def test_every_report_is_one_json_line_on_stdout_and_in_out(capsys, tmp_path,
                                                            monkeypatch, argv):
    # a frozen clock, so that both runs of a verify suite read one runtime_ms
    monkeypatch.setattr(verifier, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)
    path = tmp_path / "report.json"
    code, printed, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode()


def test_report_is_the_compact_sorted_dump_of_its_values(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--surface", "sphere:1",
                           "--grid", "10x10")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


@pytest.mark.parametrize("conf", [[1, 2], None, "analyze", 3])
def test_config_that_is_not_a_json_object_exits_2(capsys, tmp_path, conf):
    # a list or null crashed with an AttributeError traceback and exit 1
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    code, out, err = run_cli(capsys, "catalog", "--config", str(path))
    assert code == 2 and out == ""
    diag = one_strict_json_line(err)
    assert diag["code"] == "invalid-input" and "JSON object" in diag["message"]


def test_config_dirs_gives_the_flag_spec(capsys, tmp_path):
    # --dirs defaulted to "basis", so a config file never reached it
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"dirs": "angles:30"}))
    argv = ["slice", "--surface", "hyperbolic-paraboloid", "--samples", "2"]
    code, by_flag, _ = run_cli(capsys, *argv, "--dirs", "angles:30")
    assert code == 0
    code, by_config, _ = run_cli(capsys, *argv, "--config", str(path))
    assert code == 0
    assert json.loads(by_config)["spec"] == json.loads(by_flag)["spec"]
    code, basis, _ = run_cli(capsys, *argv)
    assert json.loads(basis)["spec"] != json.loads(by_flag)["spec"]


@pytest.mark.parametrize("conf,flag", [({"format": "xml"}, "--format"),
                                       ({"taylor": "no"}, "--taylor"),
                                       ({"taylor": 1}, "--taylor"),
                                       ({"dirs": 30}, "--dirs"),
                                       ({"seed": 1.5}, "--seed"),
                                       ({"out": 3}, "--out")])
def test_config_values_take_the_flag_choices(capsys, tmp_path, conf, flag):
    # "xml" came out as JSON, "no" turned the Taylor window on, a float
    # seed ended in a numpy traceback and 3 was opened as a file descriptor
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    code, out, err = run_cli(capsys, "slice", "--surface", "sphere:1",
                             "--config", str(path))
    assert code == 2 and out == ""
    diag = one_strict_json_line(err)
    assert diag["code"] == "invalid-input" and flag in diag["message"]


def test_config_surface_must_be_text(capsys, tmp_path):
    # {"surface": 5} ended in an AttributeError traceback
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"surface": 5}))
    code, out, err = run_cli(capsys, "verify", "theorem2", "--config", str(path))
    assert code == 2 and out == ""
    diag = one_strict_json_line(err)
    assert diag["code"] == "invalid-input" and "--surface" in diag["message"]


# per subcommand: arguments it runs with, a malformed value, and the
# arguments without a required one (None: it has none)
CONTRACT = {
    "analyze": (["--surface", "sphere:1", "--grid", "2"],
                ["--surface", "sphere:1", "--grid", "2", "--seed", "x"],
                ["--grid", "2"]),
    "slice": (["--surface", "sphere:1", "--samples", "2"],
              ["--surface", "sphere:1", "--s", "abc"], ["--samples", "2"]),
    "verify": (["remark4"], ["bogus"], ["--samples", "2"]),
    "audit-cartan": (["--metric", "minkowski:3", "--points", "1"],
                     ["--metric", "minkowski:3", "--points", "1.5"],
                     ["--points", "1"]),
    "catalog": ([], ["--out"], None),
}


@pytest.mark.parametrize("command", sorted(CONTRACT))
def test_cli_contract_of_every_subcommand(capsys, command):
    runs, malformed, missing = CONTRACT[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out
    assert run_cli(capsys, command, *runs)[0] == 0
    for argv in (malformed, [*runs, "--bogus"]) + ((missing,) if missing else ()):
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 2 and out == "", argv
        assert one_strict_json_line(err)["code"] == "invalid-input", argv


def test_cli_contract_of_the_top_level_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out
    for argv in ([], ["bogus"], ["--bogus"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert one_strict_json_line(err)["code"] == "invalid-input", argv


@pytest.mark.parametrize("command, conf, argv", [
    ("analyze", {"surface": "sphere:1"}, ["--grid", "2"]),
    ("slice", {"surface": "sphere:1"}, ["--samples", "2"]),
    ("audit-cartan", {"metric": "sphere:1"}, ["--points", "1"]),
])
def test_config_supplies_a_required_flag(capsys, tmp_path, command, conf, argv):
    # argparse required the flag on the command line: these exited 2
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    code, out, _ = run_cli(capsys, command, *argv, "--config", str(path))
    assert code == 0 and json.loads(out)
    path.write_text("{}")
    code, out, err = run_cli(capsys, command, *argv, "--config", str(path))
    assert code == 2 and out == ""
    diag = one_strict_json_line(err)
    assert diag["code"] == "invalid-input"
    assert f"--{next(iter(conf))}" in diag["message"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--surface", "sphere:1", "--grid", "2"],
    ["slice", "--surface", "sphere:1", "--dirs", "random", "--samples", "2"],
    ["verify", "theorem2", "--surface", "sphere:1", "--samples", "1"],
    ["audit-cartan", "--metric", "sphere:1", "--points", "1"],
])
def test_a_negative_seed_is_refused_naming_the_flag(capsys, tmp_path, argv):
    # numpy refused it without naming --seed, and analyze took it
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"seed": -1}))
    for extra in (["--seed", "-1"], ["--config", str(path)]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2 and out == "", extra
        diag = one_strict_json_line(err)
        assert diag["code"] == "invalid-input" and "--seed" in diag["message"]
    assert run_cli(capsys, *argv, "--seed", "0")[0] == 0
