import json
import math

import numpy as np
import pytest

import oracles
from sphere_re import cli, euler
from sphere_re.cli import COMMANDS, _cells, _csv, _fmt_column, build_parser, main
from sphere_re.euler import repulsive_mirror, solve_ere
from sphere_re.geometry import MeridianShape3


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_lre_solve_published_pair(tmp_path):
    code, text = run_cli(
        ["lre-solve", "--masses", "1,1,1", "--shape", "1.0471975511965976,1.33240,1.33240"], tmp_path
    )
    assert code == 0
    data = json.loads(text)
    assert data["schema_version"] == 1
    assert data["omega2"] == pytest.approx(3.85072, abs=1e-3)
    assert len(data["cos_theta"]) == 3


def test_lre_solve_verify_flag(tmp_path):
    code, text = run_cli(
        ["lre-solve", "--masses", "1,1,1", "--shape", "1.5707963,1.5707963,1.5707963", "--verify", "--T", "1.0"],
        tmp_path,
    )
    assert code == 0
    data = json.loads(text)
    assert data["verification"]["passed"] is True


def test_lre_solve_refuses_a_polish_that_walks_to_another_shape(tmp_path, capsys):
    # 1e-4 off the equilateral root at 0.527, Gauss-Newton walks 1.37 rad to a different LRE shape
    assert run_cli(["lre-solve", "--shape", "0.527,0.5271,0.5269"], tmp_path) == (3, "")
    moved = "polishing the shape onto the LRE condition moved an arc by 1.37"
    assert capsys.readouterr().err == f"numerical failure: ReconstructionOutOfRange: {moved}\n"


def test_ere_solve_isosceles(tmp_path):
    code, text = run_cli(["ere-solve", "--masses", "1,1,1", "--shape", "1.0,0.5"], tmp_path)
    assert code == 0
    data = json.loads(text)
    assert data["family"] == "isosceles-pole-middle"
    assert data["theta"] == pytest.approx([-0.5, 0.5, 0.0], abs=1e-12)
    assert data["is_ere"] is True


def test_ere_solve_non_re_shape_exit_code(tmp_path, capsys):
    code, text = run_cli(["ere-solve", "--masses", "1,1,1", "--shape", "1.0,0.4"], tmp_path)
    assert code == 3
    assert json.loads(text)["is_ere"] is False
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the shape is no ERE: max residual ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "masses, bound", [("1e-5,2e-5,3e-5", "9e-18"), ("1,2,3", "9e-08")], ids=["masses-1e-5", "masses-1"]
)
def test_ere_solve_is_ere_bound_scales_with_the_masses(masses, bound, tmp_path, capsys):
    # the residuals of a shape that is no ERE scale with the masses squared, and so does the bound
    code, text = run_cli(["ere-solve", "--masses", masses, "--shape", "1.2,-0.7"], tmp_path)
    assert code == 3
    assert json.loads(text)["is_ere"] is False
    assert capsys.readouterr().err.endswith(f" is not below {bound}\n")


def test_axis_takes_no_potential(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["axis", "--shape", "1.0,1.1,1.2", "--potential", "cotangent"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --potential" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["ere-solve", "--shape", "4,0.5"], "--shape 4,0.5: a = 4.0 outside (0, pi)"),
        (["ere-solve", "--shape", "nan,0.5"], "a = nan outside (0, pi)"),
        (["ere-solve", "--shape", "1,2,3"], "--shape takes 2 angles a,x, got 3"),
        (["lre-solve", "--shape", "0,1,1"], "arc angle 0.0 outside (0, pi)"),
        (["axis", "--shape", "0,1,1"], "arc angle 0.0 outside (0, pi)"),
        (["lre-solve", "--shape", "3,0.1,0.1"], "sigma12: 3 exceeds sum of the other two"),
        (["lre-solve", "--shape", "1,1"], "--shape takes 3 angles sigma12,sigma23,sigma31, got 2"),
        (["ere-scan", "--grid", "1"], "grids need at least 2 points"),
        (["lre-scan", "--sigma12-grid", "1"], "grids need at least 2 points"),
        (["ere-solve", "--shape", "1.0,0.5", "--T", "0"], "T and dt must be positive"),
        (["lre-solve", "--shape", "1,1,1", "--dt", "-1"], "T and dt must be positive"),
    ],
    ids=[
        "a-above-pi", "a-nan", "three-angles", "lre-zero-arc", "axis-zero-arc", "unrealizable", "two-arcs",
        "ere-grid-1", "lre-grid-1", "zero-T", "negative-dt",
    ],
)
def test_out_of_domain_shape_exit_code(args, message, tmp_path, capsys):
    assert run_cli(args, tmp_path)[0] == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("masses", ["1e300,1,1", "1e160,1,1"])
@pytest.mark.parametrize("command", [["ere-scan"], ["ere-solve", "--shape", "1.0,0.5"]], ids=["scan", "solve"])
def test_masses_whose_squared_sum_overflows_exit_2_before_any_grid_work(command, masses, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(euler, "_node_signs", None)  # the 720^2 scan must not start
    assert run_cli([*command, "--masses", masses], tmp_path) == (2, "")
    assert capsys.readouterr().err == "error: masses too large: the square of their sum overflows a double\n"


PARSER_CASES = {
    "help": ["--help"],
    **{f"{name}-help": [name, "--help"] for name in COMMANDS},
    "no-arguments": [],
    "unknown-command": ["ere-sca", "--grid", "8"],
    "unknown-option": ["ere-scan", "--grid", "8", "--gird", "8"],
    "grid-1": ["ere-scan", "--grid", "1"],
}


@pytest.mark.parametrize("argv", PARSER_CASES.values(), ids=PARSER_CASES)
def test_cli_text_matches_the_parser_with_every_option_byte_for_byte(argv, monkeypatch, capsys):
    def run():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    got = run()
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: oracles.build_parser())
    assert got == run()
    assert got[0] == (0 if "--help" in argv else 2) and (got[1] if "--help" in argv else got[2])


def test_ere_solve_a_zero_shape_whose_discriminant_rounds_above_zero(tmp_path):
    # a branch of m1 + m2 e^{2ia} + m3 e^{2ix} = 0; D rounds to 8.9e-16, within its rounding bound
    args = ["ere-solve", "--masses", "1,1.5,2", "--shape", "0.659058035826409,-1.1644185461105663"]
    code, text = run_cli(args, tmp_path)
    data = json.loads(text)
    assert code == 0 and data["family"] == "degenerate" and data["is_ere"] is True
    assert data["omega2"] == pytest.approx(11.2393221794916, rel=1e-12)


def test_ere_solve_a_zero_shape_next_to_the_singular_bound_exits_3(tmp_path, capsys):
    # a pair 23 within rounding of the singular bound makes the A = 0 system nearly rank 1:
    # the closed form solved it to omega^2 = 2.0e21 with residual 4.57e12, now a singular pair
    args = ["ere-solve", "--masses", "1.9999999999999907,1,1", "--shape", "1.5707962750801774,-1.5707962785096157"]
    code, text = run_cli(args, tmp_path)
    assert code == 3 and text == ""
    assert capsys.readouterr().err == "numerical failure: SingularSeparation: pair at or numerically at theta_ij = 0 or pi\n"


def test_ere_solve_roundtrip_precision(tmp_path):
    _, text = run_cli(["ere-solve", "--masses", "1,1,1", "--shape", "1.0,0.5"], tmp_path)
    data = json.loads(text)
    # 17 significant digits round-trip through text exactly
    assert data["omega2"] == float(repr(data["omega2"]))


def test_invalid_masses_exit_code(tmp_path, capsys):
    code, _ = run_cli(["ere-solve", "--masses", "1,-1,1", "--shape", "1.0,0.5"], tmp_path)
    assert code == 2
    code, _ = run_cli(["ere-solve", "--masses", "1,1", "--shape", "1.0,0.5"], tmp_path)
    assert code == 2
    for args in [
        ["ere-solve", "--masses", "nan,1,1", "--shape", "1.0,0.5"],
        ["ere-scan", "--grid", "8", "--masses", "nan,1,1"],
        ["ere-scan", "--grid", "8", "--masses", "inf,1,1"],
        ["euclid-limit", "--masses", "nan,1,1"],
        ["lre-solve", "--masses", "1,inf,1", "--shape", "1,1,1"],
    ]:
        capsys.readouterr()
        code, text = run_cli(args, tmp_path, args[0])
        assert (code, text) == (2, "")
        assert "masses must be positive and finite" in capsys.readouterr().err


def test_lre_scan_csv(tmp_path):
    code, text = run_cli(["lre-scan", "--sigma12-grid", "12"], tmp_path)
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "sigma12,sigma,omega2,lambda,equilateral"
    assert len(lines) > 12


def test_ere_scan_csv_and_determinism(tmp_path):
    code1, text1 = run_cli(["ere-scan", "--masses", "1,1,1", "--grid", "48"], tmp_path, "a.csv")
    code2, text2 = run_cli(["ere-scan", "--masses", "1,1,1", "--grid", "48"], tmp_path, "b.csv")
    assert code1 == code2 == 0
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0].startswith("a,x,g,")
    assert len(lines) > 40


def test_fmt_column_formats_each_value_as_the_per_value_format(rng):
    tiny = np.finfo(float).smallest_subnormal
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 3 * tiny, 1e-310, np.finfo(float).max]
    payload = np.array([0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64).view(float)  # NaNs
    col = np.concatenate([rng.choice(np.concatenate([special, payload, rng.normal(size=20)]), 600), special])
    got = _fmt_column(col)
    assert got == ["{:.17g}".format(v) for v in col.tolist()]
    assert {"0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324"} <= set(got)
    # a CSV cell by the column's type: floats as above, booleans as true/false, strings as they are
    assert _cells(col) == got
    assert _cells(np.array([True, False, True])) == ["true", "false", "true"]
    families = ["pole-middle", "isosceles-fixed-point", "generic"]
    assert _cells(np.array(families, dtype=object)) == families
    assert _cells(families) == families and _cells([]) == []


# member 0 of the benchmark's scan-unequal pool, (1, 2, 3) + U(-0.2, 0.2)
POOL_MASSES = "0.83232961566927499,1.960975116797435,3.0405156824951063"


@pytest.mark.parametrize(
    "args",
    [
        ["--grid", "720", "--masses", "1,1,1"],
        ["--grid", "720", "--masses", POOL_MASSES],
        ["--grid", "720", "--masses", "1.83,1.83,1.83"],
        ["--grid", "720", "--masses", "1,1,1", "--potential", "negated-cotangent"],
        ["--grid", "2", "--masses", "1,1,1"],  # no hits: the header only
    ],
    ids=["111", "pool", "183", "negated", "empty"],
)
def test_ere_scan_csv_equals_the_per_hit_oracle(tmp_path, args):
    code, text = run_cli(["ere-scan", *args], tmp_path)
    assert code == 0
    want = _csv("ere-scan", oracles.cmd_ere_scan(build_parser().parse_args(["ere-scan", *args])))
    # line lists: a failing string compare of this size makes pytest diff for minutes
    assert text.splitlines() == want.splitlines()
    assert text == want
    assert (len(want.splitlines()) > 3000) == (args[1] == "720")


def test_axis_json(tmp_path):
    code, text = run_cli(
        ["axis", "--masses", "1,1,1", "--shape", "1.5707963267948966,1.5707963267948966,1.5707963267948966"],
        tmp_path,
    )
    assert code == 0
    data = json.loads(text)
    vals = [p["eigenvalue"] for p in data["eigenpairs"]]
    assert vals == pytest.approx([2.0, 2.0, 2.0])
    assert all(p["degenerate"] for p in data["eigenpairs"])


def test_verify_subcommand(tmp_path):
    cands = [
        {
            "label": "right-angle-triple",
            "theta": [0.9553166181245093] * 3,
            "phi": [0.0, 2.0943951023931953, 4.1887902047863905],
            "omega2": 3.0,
            "masses": [1.0, 1.0, 1.0],
        },
        {
            "label": "meridian-isosceles",
            "theta": [-0.5, 0.5, 0.0],
            "phi": None,
            "omega2": 13.697366470914243,
        },
    ]
    src = tmp_path / "cands.json"
    src.write_text(json.dumps(cands))
    out = tmp_path / "reports.json"
    code = main(["verify", "--input", str(src), "--T", "1.0", "--output", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == 2
    assert all(r["passed"] for r in reports)
    assert reports[0]["label"] == "right-angle-triple"


def test_verify_unknown_potential_exit_code(tmp_path, capsys):
    cands = [{"label": "bogus", "theta": [-0.5, 0.5, 0.0], "phi": None, "omega2": 13.697366470914243, "potential": "bogus"}]
    src = tmp_path / "cands.json"
    src.write_text(json.dumps(cands))
    out = tmp_path / "reports.json"
    assert main(["verify", "--input", str(src), "--T", "0.01", "--output", str(out)]) == 2
    assert "unknown potential 'bogus'" in capsys.readouterr().err
    assert not out.exists()


MERIDIAN_ITEM = {"label": "iso", "theta": [-0.5, 0.5, 0.0], "phi": None, "omega2": 13.697366470914243}
# the right-angle triangular RE, off the meridian
TRIANGLE_ITEM = {
    "label": "right-angle", "theta": [0.9553166181245093] * 3,
    "phi": [0.0, 2.0943951023931953, 4.1887902047863905], "omega2": 3.0,
}


def run_verify(tmp_path, items, *options):
    src = tmp_path / "cands.json"
    src.write_text(json.dumps(items))
    out = tmp_path / "reports.json"
    code = main(["verify", "--input", str(src), *options, "--output", str(out)])
    return code, out


@pytest.mark.parametrize("options", [("--dt", "30"), ("--T", "inf")], ids=["dt-over-T", "infinite-T"])
def test_verify_window_without_steps_exit_code(tmp_path, capsys, options):
    # an arbitrary non-equilibrium: with no step taken it used to pass
    item = dict(MERIDIAN_ITEM, omega2=1.0)
    code, out = run_verify(tmp_path, [item], *options)
    assert code == 2
    assert "integration step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, message",
    [
        ([{k: v for k, v in MERIDIAN_ITEM.items() if k != "theta"}], "needs 'theta'"),
        ([dict(MERIDIAN_ITEM, theta=[-0.5, 0.5])], "in threes"),
        ([dict(MERIDIAN_ITEM, masses=[1, -1, 1])], "positive"),
        ([dict(MERIDIAN_ITEM, masses=[math.nan, 1, 1])], "NaN is not a JSON number"),
        ([dict(MERIDIAN_ITEM, masses=[1, math.inf, 1])], "Infinity is not a JSON number"),
        ([dict(MERIDIAN_ITEM, masses={"m1": 1.0})], "malformed candidate"),
        ([dict(MERIDIAN_ITEM, potential=["cotangent"])], "name of a potential"),
        (5, "JSON array"),
        (MERIDIAN_ITEM, "JSON array"),
        ([dict(MERIDIAN_ITEM, meridian="false")], "'meridian' must be true or false"),
        ([dict(MERIDIAN_ITEM, label=7)], "'label' must be a string"),
        ([dict(MERIDIAN_ITEM, omega2=str(MERIDIAN_ITEM["omega2"]))], "'omega2' must be a number"),
        ([dict(MERIDIAN_ITEM, omega2=True)], "'omega2' must be a number"),
        ([dict(TRIANGLE_ITEM, omega2=-3.0)], "at least 0 off the meridian"),
        ([dict(MERIDIAN_ITEM, meridian=False)], "a candidate off the meridian needs 'phi'"),
    ],
    ids=[
        "no-theta", "two-angles", "negative-mass", "nan-mass", "inf-mass", "masses-object", "potential-list",
        "top-level-number", "top-level-object", "meridian-string", "label-number", "omega2-string",
        "omega2-bool", "negative-omega2-off-meridian", "off-meridian-no-phi",
    ],
)
def test_verify_malformed_candidate_exit_code(tmp_path, capsys, payload, message):
    src = tmp_path / "cands.json"
    src.write_text(json.dumps(payload))
    out = tmp_path / "reports.json"
    assert main(["verify", "--input", str(src), "--T", "0.01", "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, token, message",
    [
        ("omega2", "NaN", "NaN is not a JSON number"),
        ("omega2", "Infinity", "Infinity is not a JSON number"),
        ("omega2", "-Infinity", "-Infinity is not a JSON number"),
        ("omega2", "1e400", "'omega2' must be a number: finite"),
        ("omega2", "1" + "0" * 400, "malformed candidate"),
        ("theta", "[NaN, 0.5, 0.0]", "NaN is not a JSON number"),
        ("theta", "[-0.5, 1e400, 0.0]", "'theta' must be finite"),
        ("theta", '[0.3, "1.2", 2.0]', "'theta' must be a list of numbers"),
        ("theta", "[true, 1.2, 2.0]", "'theta' must be a list of numbers"),
        ("phi", '[0.0, 2.0, "4.0"]', "'phi' must be a list of numbers"),
        ("masses", "[1, 1, true]", "'masses' must be a list of numbers"),
        ("masses", "[1, 1e400, 1]", "'masses' must be finite"),
    ],
    ids=[
        "omega2-nan", "omega2-inf", "omega2-minus-inf", "omega2-1e400", "omega2-huge-int", "theta-nan",
        "theta-1e400", "theta-string", "theta-bool", "phi-string", "masses-bool", "masses-1e400",
    ],
)
def test_verify_refuses_what_is_not_a_finite_json_number(tmp_path, capsys, field, token, message):
    # NaN and Infinity are no JSON tokens (RFC 8259), 1e400 overflows to
    # inf, and a string or a boolean is no number: each one used to be
    # verified, most as a blow-up at t = 0
    src = tmp_path / "cands.json"
    src.write_text(json.dumps([dict(MERIDIAN_ITEM, **{field: "@"})]).replace('"@"', token))
    out = tmp_path / "reports.json"
    assert main(["verify", "--input", str(src), "--T", "0.01", "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_file_blows_up_bad_rows_alone(tmp_path):
    # each system runs as one batch; a row that cannot be integrated
    # blows up when it would alone and leaves the other rows untouched
    mirror = repulsive_mirror(solve_ere(MeridianShape3(1.0, 0.5), np.ones(3)))
    healthy = [
        TRIANGLE_ITEM,
        MERIDIAN_ITEM,
        {"label": "mirror", "theta": list(mirror.thetas), "phi": None, "omega2": mirror.omega2,
         "potential": mirror.potential_name},
    ]
    bad = [
        {"label": "singular-pair", "theta": [0.2, 0.2, -1.0], "phi": None, "omega2": 0.0},
        {"label": "pole", "theta": [0.0, 1.0, 2.0], "phi": [0.0, 1.0, 2.0], "omega2": 1.0},
        {"label": "collision", "theta": [math.pi / 2, math.pi / 2, 1.0], "phi": [0.0, 0.05, 2.0], "omega2": 0.5},
    ]
    items = [healthy[0], bad[0], healthy[1], bad[1], healthy[2], bad[2]]
    code, out = run_verify(tmp_path, items, "--T", "1.5")
    assert code == 0
    together = json.loads(out.read_text())["reports"]
    for item, rep in zip(items, together):
        code, alone = run_verify(tmp_path, [item], "--T", "1.5")
        assert code == 0
        assert json.dumps(json.loads(alone.read_text())["reports"][0]) == json.dumps(rep), item["label"]
    blew_up = {rep["label"]: rep["blew_up_at"] for rep in together}
    assert blew_up["singular-pair"] == blew_up["pole"] == 0.0
    assert 0.0 < blew_up["collision"] < 1.5
    assert all(blew_up[item["label"]] is None for item in healthy)
    assert all(rep["passed"] == (rep["label"] in ("right-angle", "iso", "mirror")) for rep in together)


@pytest.mark.parametrize(
    "eps,code",
    [
        (["0.01", "0.01"], 2),
        (["0.01", "0"], 2),
        (["nan", "0.01"], 2),
        (["0", "0.01"], 2),
        (["-0.01", "0.001"], 2),
        (["inf", "0.01"], 2),
        (["1e200", "0.001"], 3),
    ],
)
def test_euclid_limit_bad_eps_exit_codes(eps, code, tmp_path, capsys):
    assert run_cli(["euclid-limit", "--eps", *eps], tmp_path)[0] == code
    if code == 2:
        assert "--eps values must be" in capsys.readouterr().err


def test_euclid_limit_subcommand(tmp_path):
    code, text = run_cli(["euclid-limit", "--eps", "0.01", "0.005", "0.0025"], tmp_path)
    assert code == 0
    data = json.loads(text)
    assert len(data["rows"]) == 3
    for order in data["observed_orders"]:
        assert order == pytest.approx(2.0, abs=0.1)


def test_scalene_search_subcommand(tmp_path):
    code, text = run_cli(["scalene-lre-search", "--resolution", "40"], tmp_path)
    assert code == 0
    data = json.loads(text)
    assert data["min_residual_off_loci"] > 1e-8
    assert data["conclusive"] is False
    assert "not proven" in data["note"]


@pytest.mark.parametrize("margin", ["0", "-1", "nan", "inf"])
def test_scalene_search_bad_margin_exit_code(margin, tmp_path, capsys):
    # at zero or below the isosceles loci count as scalene; NaN used to read "grid too coarse"
    assert run_cli(["scalene-lre-search", "--resolution", "30", "--margin", margin], tmp_path) == (2, "")
    assert "margin must be finite and positive" in capsys.readouterr().err


def test_stdout_output(capsys):
    code = main(["axis", "--masses", "1,2,3", "--shape", "1.0,1.1,1.2", "--output", "-"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert "eigenpairs" in data
