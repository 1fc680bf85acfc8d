import json
import re

import pytest

from asymlab.cli import main, parse_radii, parse_target
from asymlab.growth import Classic
from asymlab.specs import Polynomial, Series


def run(tmp_path, *argv):
    import os

    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(old)


# --- mini-language ---------------------------------------------------------

def test_parse_target_poly_complex():
    p = parse_target("poly:1,2+3i,-0.5i")
    assert isinstance(p, Polynomial)
    assert p.coeffs == (1 + 0j, 2 + 3j, -0.5j)


def test_parse_target_classic():
    c = parse_target("classic:3")
    assert isinstance(c, Classic)
    assert c.cfg.n == 3


def test_parse_target_series(tmp_path):
    s = Series([1, 0.5j], 4.0, 0.0)
    (tmp_path / "s.json").write_text(json.dumps({"format": "funcspec/1", **s.to_json_dict()}))
    assert parse_target("series:@%s" % (tmp_path / "s.json")) == s


def test_parse_target_malformed():
    from asymlab.cli import UsageError

    for bad in ("poly:", "poly", "wat:1", "poly:xx"):
        with pytest.raises(UsageError):
            parse_target(bad)


def test_parse_target_refused_forms(tmp_path):
    # every CLI form refuses the payload of another, and a kind without a
    # CLI form is unknown to the mini-language
    (tmp_path / "f.json").write_text(json.dumps({"format": "funcspec/1", "kind": "poly",
                                                 "coeffs": [[1, 0]]}))
    f = tmp_path / "f.json"
    cases = {
        "constructed:@%s" % f: "unknown spec kind 'constructed'",
        "constructed:2": "unknown spec kind 'constructed'",
        "poly:@%s" % f: "cannot parse complex number '@%s'" % f,
        "series:1,2": "series payload must be @file",
        "series:@%s" % f: "%s is not a series funcspec" % f,
        "classic:@%s" % f: "invalid literal for int()",
        "classic:2.5": "invalid literal for int()",
    }
    for text, message in cases.items():
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_target(text)


def test_parse_radii():
    assert parse_radii("2,3,4.5") == [2.0, 3.0, 4.5]
    assert parse_radii("1:3:0.5") == [1.0, 1.5, 2.0, 2.5, 3.0]
    from asymlab.cli import UsageError

    with pytest.raises(UsageError):
        parse_radii("3:1:0.5")


def test_growth_radii_grid_too_long_exit_2(tmp_path, capsys):
    # used to build the list until memory ran out
    assert run(tmp_path, "growth", "--f", "classic:2", "--radii", "1:1e12:1", "--out", "g.csv") == 2
    assert "more than" in capsys.readouterr().err


def test_parse_radii_non_finite():
    # "5:inf:1" used to grow its list without end
    from asymlab.cli import UsageError

    for bad in ("5:inf:1", "nan:5:1", "5:nan:1", "1:5:nan", "1:5:inf", "-inf:5:1", "nan,5,6", "5,inf"):
        with pytest.raises(UsageError):
            parse_radii(bad)


def accumulated_grid(a, b, step):
    """The a:b:step grid as parse_radii used to build it, by adding step."""
    out = []
    r = a
    while r <= b * (1 + 1e-12):
        out.append(round(r, 12))
        r += step
    return out


GRIDS = ["5:30:1", "2:5:0.5", "1:3:0.5", "0:1:0.1", "3:3:1", "1:1.05:0.1", "0.001:0.5:0.01"] + [
    "%r:%r:%r" % (a, a + m * step, step)
    for a in (0.0, 0.1, 1.0, 2.0, 7.3, 10.0)
    for step in (0.05, 0.1, 0.25, 0.3, 0.7, 1.0, 2.5, 1 / 3)
    for m in (0, 1, 7, 25)
]


def test_parse_radii_grid_matches_accumulated_loop():
    for text in GRIDS:
        a, b, step = map(float, text.split(":"))
        assert parse_radii(text) == accumulated_grid(a, b, step), text


def test_parse_radii_tiny_step():
    # r += 1 never moves r = 1e17, so the grid used to grow without end
    assert parse_radii("1e17:1e17:1") == [1e17]
    # counted points do not drift where accumulated ones did (112.666666666666)
    grid = parse_radii("100:113:0.3333333333333333")
    assert len(grid) == 40 and grid[-2] == 112.666666666667


def test_parse_radii_steps_below_1e_12():
    # rounding to 12 decimals made five 0.0 of the first grid, and repeated
    # points in the second
    assert parse_radii("1e-13:5e-13:1e-13") == [1e-13, 2e-13, 3e-13, 4e-13, 5e-13]
    assert parse_radii("1e-12:5e-12:5e-13") == [1e-12, 1.5e-12, 2e-12, 2.5e-12, 3e-12, 3.5e-12, 4e-12, 4.5e-12, 5e-12]


# --- subcommands -----------------------------------------------------------

def test_construct_writes_spec_and_manifest(tmp_path, capsys):
    rc = run(tmp_path, "construct", "--n", "2", "--a", "poly:1", "--a", "poly:0,1")
    assert rc == 0
    out = capsys.readouterr().out
    assert "c_2 = 0.886226" in out
    spec = json.loads((tmp_path / "funcspec.json").read_text())
    assert spec["format"] == "funcspec/1" and spec["kind"] == "constructed"
    man = json.loads((tmp_path / "run_manifest.json").read_text())
    assert man["format"] == "manifest/1" and man["command"] == "construct"
    assert man["config"]["out"] == "funcspec.json"  # defaults echoed
    assert "tol" not in man["config"] and "tol" not in spec


def test_construct_n1_warns(tmp_path, capsys):
    rc = run(tmp_path, "construct", "--n", "1", "--a", "poly:5")
    assert rc == 0
    assert "degenerate" in capsys.readouterr().out


def test_construct_malformed_target(tmp_path):
    assert run(tmp_path, "construct", "--n", "2", "--a", "poly:", "--a", "poly:1") == 2


def test_construct_rejects_a_classic_target(tmp_path, capsys):
    assert run(tmp_path, "construct", "--n", "2", "--a", "classic:2", "--a", "poly:1") == 2
    assert "Polynomial or a Series" in capsys.readouterr().err
    assert not (tmp_path / "funcspec.json").exists()


def test_construct_rejects_a_nan_tail_bound_radius(tmp_path, capsys):
    # json.loads reads the NaN token; a NaN radius used to pass the > 0 test
    # and certify the series everywhere
    (tmp_path / "s.json").write_text('{"format": "funcspec/1", "kind": "series", '
                                     '"coeffs": [[1, 0], [1, 0]], "tail_bound_radius": NaN}')
    assert run(tmp_path, "construct", "--n", "2", "--a", "series:@s.json", "--a", "poly:1") == 2
    assert "error: tail_bound_radius must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "funcspec.json").exists()


@pytest.mark.parametrize("field, value, message", [
    ("tail_bound_radius", "Infinity", "tail_bound_radius must be finite"),
    ("declared_order", "Infinity", "declared_order must be finite or absent"),
    ("declared_order", "-Infinity", "declared_order must be finite or absent"),
])
def test_construct_rejects_an_infinite_series_field(tmp_path, capsys, field, value, message):
    # json.loads reads the Infinity token; an infinite radius used to certify
    # the series everywhere, and either field was written back as Infinity,
    # which is not JSON
    doc = {"format": "funcspec/1", "kind": "series", "coeffs": [[1, 0], [1, 0]], "tail_bound_radius": 4.0}
    doc[field] = "@"
    (tmp_path / "s.json").write_text(json.dumps(doc).replace('"@"', value))
    assert run(tmp_path, "construct", "--n", "2", "--a", "series:@s.json", "--a", "poly:1") == 2
    assert "error: %s" % message in capsys.readouterr().err
    assert not (tmp_path / "funcspec.json").exists()


@pytest.mark.parametrize("target", ["poly:nan,1", "poly:1,1e400", "poly:1,nan+1i"])
def test_growth_rejects_non_finite_coefficients(tmp_path, capsys, target):
    # used to write a growth.csv of nan rows and fail only at the fit
    assert run(tmp_path, "growth", "--f", target, "--radii", "1:5:1") == 2
    assert "error: polynomial coefficients must be finite" in capsys.readouterr().err
    assert not (tmp_path / "growth.csv").exists()
    assert not (tmp_path / "orderfit.json").exists()


def test_trace_csv(tmp_path, capsys):
    run(tmp_path, "construct", "--n", "2", "--a", "poly:1", "--a", "poly:0,1")
    capsys.readouterr()
    rc = run(tmp_path, "trace", "--spec", "funcspec.json", "--radii", "2:5:1", "--out", "-")
    assert rc == 0
    assert json.loads((tmp_path / "run_manifest.json").read_text())["command"] == "trace"
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "ray_index,r,log10_abs_residual"
    assert len(lines) == 1 + 8  # 2 rays x 4 radii
    # residuals strictly decreasing within each ray
    for j in (1, 2):
        vals = [float(l.split(",")[2]) for l in lines[1:] if l.startswith("%d," % j)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_trace_rows_do_not_depend_on_the_other_radii(tmp_path):
    # all rays go in one evaluation; batch invariance keeps each row's bytes
    run(tmp_path, "construct", "--n", "3", "--a", "poly:1", "--a", "poly:0,1", "--a", "poly:2")
    assert run(tmp_path, "trace", "--spec", "funcspec.json", "--radii", "2:5:0.5", "--out", "all.csv") == 0
    assert run(tmp_path, "trace", "--spec", "funcspec.json", "--radii", "2,3.5,5", "--out", "sub.csv") == 0
    every = (tmp_path / "all.csv").read_text().splitlines()
    sub = (tmp_path / "sub.csv").read_text().splitlines()
    assert len(sub) == 1 + 3 * 3 and set(sub) <= set(every)


def test_trace_empty_radii(tmp_path):
    run(tmp_path, "construct", "--n", "2", "--a", "poly:1", "--a", "poly:0,1")
    assert run(tmp_path, "trace", "--spec", "funcspec.json", "--radii", "") == 2


def test_growth_classic(tmp_path, capsys):
    rc = run(
        tmp_path, "growth", "--f", "classic:2", "--radii", "5:30:5",
        "--coarse", "64", "--out", "g.csv", "--fit-out", "fit.json",
    )
    assert rc == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert list(fit) == ["rho_hat", "intercept", "r_range", "residual_rms"]
    assert abs(fit["rho_hat"] - 1.0) <= 0.25
    assert json.loads((tmp_path / "run_manifest.json").read_text())["command"] == "growth"
    lines = (tmp_path / "g.csv").read_text().strip().splitlines()
    assert lines[0] == "r,log_max_mod,argmax_theta,domain_id"
    assert len(lines) == 7


def test_growth_nan_radius_exit_2(tmp_path, capsys):
    # used to reach the incomplete-gamma kernel and exit 4
    assert run(tmp_path, "growth", "--f", "classic:2", "--radii", "nan,5,6,7,8", "--out", "g.csv") == 2
    assert "finite" in capsys.readouterr().err


def test_growth_coarse_cap_exit_2(tmp_path, capsys):
    # used to exit 4 with a MemoryError for 7.28 TiB of probes
    rc = run(tmp_path, "growth", "--f", "classic:2", "--radii", "5:6:1", "--coarse", "1000000000000", "--out", "g.csv")
    assert rc == 2
    assert "coarse" in capsys.readouterr().err


@pytest.mark.parametrize("f", ["spec", "classic:8"])
def test_growth_huge_radius_exit_2(tmp_path, capsys, f):
    # z^3 and |z|^4 overflow a double; both used to exit 4 (ArithmeticError)
    if f == "spec":
        run(tmp_path, "construct", "--n", "3", "--a", "poly:1", "--a", "poly:0,1", "--a", "poly:2")
        args, radii = ["--spec", "funcspec.json"], "1e100,1e110,1e120,1e150,1e200"
    else:
        args, radii = ["--f", f], "1e100,1e101,1e102,1e103"
    capsys.readouterr()
    assert run(tmp_path, "growth", *args, "--radii", radii, "--out", "g.csv") == 2
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_trace_huge_radius_exit_2_without_csv(tmp_path, capsys):
    run(tmp_path, "construct", "--n", "3", "--a", "poly:1", "--a", "poly:0,1", "--a", "poly:2")
    rc = run(tmp_path, "trace", "--spec", "funcspec.json", "--radii", "1,1e103", "--out", "t.csv")
    assert rc == 2
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_growth_single_radius_fails(tmp_path):
    assert run(tmp_path, "growth", "--f", "poly:0,1", "--radii", "5", "--out", "g.csv") == 2


def test_growth_failed_fit_writes_nothing(tmp_path, capsys):
    # the fit runs before the CSV is written; a growth.csv used to be left behind
    assert run(tmp_path, "growth", "--f", "poly:1", "--radii", "2,3") == 2
    assert "need at least 4 samples" in capsys.readouterr().err
    for name in ("growth.csv", "orderfit.json", "run_manifest.json"):
        assert not (tmp_path / name).exists(), name


def test_domain_closed_form(tmp_path):
    rc = run(
        tmp_path, "domain", "--rays", "3", "--R1", "1", "--R", "10",
        "--radii", "1,5", "--out", "d.json", "--slices-out", "s.csv",
    )
    assert rc == 0
    doc = json.loads((tmp_path / "d.json").read_text())
    import math

    want = (math.pi / 8.0) * 10.0 ** 1.5
    assert abs(doc["carleman"][0]["logM_lower"] - want) <= 1e-6
    assert all(row["holds"] for row in doc["sector_inequality"])
    lines = (tmp_path / "s.csv").read_text().strip().splitlines()
    assert lines[0] == "j,t,arc_start,arc_end,phi"
    assert len(lines) == 1 + 6  # 3 domains x 2 radii, one arc each
    assert json.loads((tmp_path / "run_manifest.json").read_text())["command"] == "domain"


def test_domain_slices_of_a_kinked_system(tmp_path):
    # the CSV's one pass over the paths per radius gives the rows of
    # angular_measure, domain by domain
    from asymlab.geometry import PathSystem, angular_measure

    from conftest import make_random_system

    (tmp_path / "sys.json").write_text(json.dumps(make_random_system(5, 3).to_json_dict()))
    # the system as the CLI reads it: the terminal directions pass through their angles
    sysm = PathSystem.from_json_dict(json.loads((tmp_path / "sys.json").read_text()))
    radii = [0.3, 0.9, 1.6, 2.5, 7.0]
    argv = ["domain", "--system", "sys.json", "--R", "10", "--radii", ",".join(map(repr, radii))]
    assert run(tmp_path, *argv, "--slices-out", "s.csv") == 0
    want = ["j,t,arc_start,arc_end,phi"]
    for j in range(1, 4):
        for t in radii:
            sl = angular_measure(sysm, j, t)
            want += ["%d,%.17g,%.17g,%.17g,%.17g" % (j, t, a, b, sl.phi) for a, b in sl.arcs]
    assert (tmp_path / "s.csv").read_text().splitlines() == want


def test_domain_slices_to_stdout(tmp_path, capsys):
    # - is stdout for every CSV output; the slices CSV used to go to a file named -
    argv = ["domain", "--rays", "3", "--R1", "1", "--R", "10", "--radii", "1,5"]
    assert run(tmp_path, *argv, "--slices-out", "s.csv") == 0
    capsys.readouterr()
    assert run(tmp_path, *argv, "--slices-out", "-") == 0
    out = capsys.readouterr().out
    assert out == (tmp_path / "s.csv").read_text() + "wrote domain.json and -\n"
    assert not (tmp_path / "-").exists()


def test_domain_critical_radius_exit_3(tmp_path):
    from asymlab.geometry import PathSystem, SegmentalPath

    sysm = PathSystem((SegmentalPath([0, 1, 1 + 10j], 1j), SegmentalPath.ray(3.0)))
    (tmp_path / "sys.json").write_text(json.dumps(sysm.to_json_dict()))
    rc = run(
        tmp_path, "domain", "--system", "sys.json", "--R", "12",
        "--radii", "1", "--out", "d.json", "--slices-out", "s.csv",
    )
    assert rc == 3  # |z| = 1 passes through the corner of the L


def test_domain_huge_R(tmp_path, capsys):
    import math

    argv = ["domain", "--rays", "2", "--R1", "1", "--radii", "2", "--out", "d.json", "--slices-out", "s.csv"]
    assert run(tmp_path, *argv, "--R", "1e100") == 0
    doc = json.loads((tmp_path / "d.json").read_text())
    assert doc["carleman"][0]["integral_I"] == pytest.approx(math.log(1e100) / math.pi, rel=1e-15)
    # 2 R^2 overflows: a usage error naming the radius
    assert run(tmp_path, *argv, "--R", "1e160") == 2
    assert "R = 1e+160" in capsys.readouterr().err


def test_domain_wos_seed_echoed(tmp_path):
    rc = run(
        tmp_path, "domain", "--rays", "2", "--R1", "1", "--R", "8",
        "--radii", "2", "--wos", "--z1=-2i", "--walks", "500", "--seed", "99",
        "--out", "d.json", "--slices-out", "s.csv",
    )
    assert rc == 0
    doc = json.loads((tmp_path / "d.json").read_text())
    assert list(doc["wos"]) == ["j", "z1", "seed", "n_walks", "omega_hat", "ci95_halfwidth",
                                "hits", "truncated_walks", "warning"]
    assert doc["wos"]["seed"] == 99
    assert 0.0 <= doc["wos"]["omega_hat"] <= 1.0


@pytest.mark.parametrize("seed", ["-1", "9223372036854775808", "18446744073709551616"])
def test_domain_wos_seed_out_of_range_exit_2(tmp_path, capsys, seed):
    rc = run(
        tmp_path, "domain", "--rays", "2", "--R1", "1", "--R", "8",
        "--radii", "2", "--wos", "--z1=-2i", "--walks", "50", "--seed", seed,
        "--out", "d.json", "--slices-out", "s.csv",
    )
    assert rc == 2
    assert "seed must lie in [0, 2**63)" in capsys.readouterr().err


def test_domain_wos_too_many_walks_exit_2(tmp_path, capsys):
    rc = run(
        tmp_path, "domain", "--rays", "2", "--R1", "1", "--R", "8",
        "--radii", "2", "--wos", "--z1=-2i", "--walks", "100000000000",
        "--out", "d.json", "--slices-out", "s.csv",
    )
    assert rc == 2
    assert "n_walks must lie in [1, 10000000]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "R, z1",
    [
        ("9e153", "2e153-2e153i"),  # used to exit 0 with a wrong estimate
        ("9.4e153", "3e153-3e153i"),  # used to exit 4 on an OverflowError
        ("8", "5e-324-5e-324i"),  # likewise, and lies in the absorption shell
    ],
)
def test_domain_wos_extreme_input_exit_2(tmp_path, capsys, R, z1):
    rc = run(
        tmp_path, "domain", "--rays", "2", "--R1", "1", "--R", R,
        "--radii", "2", "--wos", "--z1=" + z1, "--walks", "200",
        "--out", "d.json", "--slices-out", "s.csv",
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_check_filter_and_exit(tmp_path, capsys):
    rc = run(tmp_path, "check", "--filter", "carleman")
    assert rc == 0
    out = capsys.readouterr().out
    assert "carleman-rays" in out and "PASS" in out
    doc = json.loads((tmp_path / "check.json").read_text())
    assert all(row["pass"] for row in doc)


def test_check_unfiltered_passes(tmp_path):
    assert run(tmp_path, "check") == 0
    doc = json.loads((tmp_path / "check.json").read_text())
    assert len(doc) == 5
    assert all(row["pass"] for row in doc)


def test_check_failure_exit_1(tmp_path, monkeypatch, capsys):
    import asymlab.cli as cli

    checks = cli._bundled_checks()
    checks["sector-inequality"] = lambda: (1.0, 2.0, "lhs >= rhs", False)
    monkeypatch.setattr(cli, "_bundled_checks", lambda: checks)
    assert run(tmp_path, "check", "--filter", "sector") == 1
    out = capsys.readouterr().out
    assert "sector-inequality        FAIL" in out and "failed: sector-inequality" in out
    doc = json.loads((tmp_path / "check.json").read_text())
    assert doc == [{"criterion": "sector-inequality", "measured": 1.0, "expected": 2.0,
                    "tolerance": "lhs >= rhs", "pass": False}]
    assert json.loads((tmp_path / "run_manifest.json").read_text())["command"] == "check"


def test_check_unknown_filter(tmp_path):
    assert run(tmp_path, "check", "--filter", "nope") == 2


def test_usage_error_exit_code(tmp_path):
    assert run(tmp_path, "frobnicate") == 2
    assert run(tmp_path, "trace", "--radii", "1,2") == 2  # no spec given


@pytest.mark.parametrize(
    "doc",
    [
        {"format": "funcspec/1", "n": 2},  # no kind
        {"format": "funcspec/1", "kind": "poly", "coeffs": [1, 2]},
        {"format": "funcspec/1", "kind": "poly", "coeffs": [["1", 0]]},
        {"format": "funcspec/1", "kind": "constructed", "n": "2",
         "targets": [{"kind": "poly", "coeffs": [[1, 0]]}] * 2},
        [1, 2],  # not an object
    ],
)
def test_malformed_funcspec_exit_2(tmp_path, capsys, doc):
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    for argv in (["trace", "--spec", "bad.json"], ["growth", "--f", "series:@bad.json"]):
        assert run(tmp_path, *argv, "--radii", "1,2") == 2
        assert "error: malformed input file bad.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"format": "funcspec/1", "kind": "constructed", "n": 1,
          "targets": [{"kind": "bogus", "coeffs": [[1, 0]], "tail_bound_radius": 100}]},
         "unknown funcspec target kind 'bogus'"),
        ({"format": "funcspec/1", "kind": "classic", "n": 2.5}, "n must be an integer, not 2.5"),
        ({"format": "funcspec/1", "kind": "classic", "n": True}, "n must be an integer, not True"),
        ({"format": "funcspec/1", "kind": "constructed", "n": 1.0,
          "targets": [{"kind": "poly", "coeffs": [[1, 0]]}]},
         "n must be an integer, not 1.0"),
    ],
)
def test_invalid_funcspec_value_exit_2(tmp_path, capsys, doc, message):
    # an unknown target kind or a non-integer n is refused, not read as
    # something else
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    assert run(tmp_path, "growth", "--spec", "bad.json", "--radii", "1:20:1") == 2
    assert "error: %s" % message in capsys.readouterr().err
    assert not (tmp_path / "growth.csv").exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"format": "pathsystem/1"},  # no paths
        {"format": "pathsystem/1", "paths": [{"vertices": [0, 1], "terminal_direction": 0}]},
    ],
)
def test_malformed_pathsystem_exit_2(tmp_path, capsys, doc):
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    assert run(tmp_path, "domain", "--system", "bad.json", "--R", "4", "--radii", "2") == 2
    assert "error: malformed input file bad.json" in capsys.readouterr().err


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    # a bug inside a subcommand is not a usage error
    import asymlab.cli as cli

    def broken(args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "cmd_check", broken)
    assert run(tmp_path, "check") == 4
    assert "internal error: TypeError: unsupported operand" in capsys.readouterr().err
    assert not (tmp_path / "run_manifest.json").exists()  # only a run that returns writes one


def test_csv_17_digit_stability(tmp_path):
    # the fit needs four samples with ln r > 1, the largest 4 times the smallest
    run(tmp_path, "growth", "--f", "poly:0,1", "--radii", "2,3,10,30,100", "--out", "g.csv", "--fit-out", "f.json")
    row = (tmp_path / "g.csv").read_text().strip().splitlines()[1].split(",")
    # 17 significant digits reproduce the double exactly
    import math

    assert float(row[1]) == math.log(2.0) or abs(float(row[1]) - math.log(2.0)) < 1e-15
