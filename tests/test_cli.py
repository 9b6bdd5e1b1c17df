"""The command-line interface: problem-file grammar, commands, JSON
determinism, and exit codes."""

import json

import pytest

from rowfibers import MapContext
from rowfibers.cli import main, parse_problem

from helpers import DATA, FP


MONOMIAL = str(DATA / "monomial_cover.txt")
QUARTIC = str(DATA / "quartic_curve.txt")
MATRICES = str(DATA / "quartic_matrices.txt")
CUBICS = str(DATA / "plane_cubics.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# -- problem-file grammar ----------------------------------------------------


def test_parse_problem_golden():
    text = (DATA / "monomial_cover.txt").read_text()
    prob = parse_problem(text, base_dir=DATA)
    assert prob.ring.variables == ("a", "b", "c", "d")
    assert prob.ring.field == FP
    assert len(prob.ideal("J").generators) == 4
    assert len(prob.ideal("I").generators) == 5
    assert len(prob.point("q").coords) == 5


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("vars x y\n", "before field"),
        ("field 32003\nideal I: x\n", "before vars"),
        ("field 6\nvars x y\n", "characteristic"),
        ("field 32003\nvars x y\nideal I: q*w\n", "bad polynomial"),
        ("field 32003\nvars x y\nideal I: x\nideal I: y\n", "duplicate"),
        ("field 32003\nvars x y\nwhat now\n", "unknown directive"),
        ("field 32003\nvars x y\nideal I: J + x\n", "bad polynomial 'J'"),
        ("field 32003\nvars x y\npoint p: 0 0\n", "nonzero"),
        ("field 32003\nvars x y\nideal I: x + + y\n", "misplaced"),
        ("field 32003\n", "missing vars"),
    ],
)
def test_parse_problem_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_problem(text, base_dir=DATA)


def test_ideal_sum_expression():
    text = "field 32003\nvars x y\nideal A: x^2\nideal B: A + y^2 + x*y\n"
    prob = parse_problem(text)
    assert [str(g) for g in prob.ideal("B").generators] == ["x^2", "y^2", "x*y"]


def test_point_coordinate_forms():
    text = "field 32029 with-i\nvars x y\npoint p: -3 i\npoint r: 1 -i\n"
    prob = parse_problem(text)
    F = prob.ring.field
    assert prob.point("p").coords == (F.from_int(-3), F.sqrt_minus_one)
    assert prob.point("r").coords == (F.one, F.neg(F.sqrt_minus_one))


# -- commands ----------------------------------------------------------------


def test_cli_gb_and_codim(capsys):
    rep = run_json(capsys, "gb", MONOMIAL, "J")
    assert rep["results"]["groebner"] == ["a*b^2", "a*c^2", "b*c^2", "b^2*c"]
    rep = run_json(capsys, "codim", MONOMIAL, "I")
    assert rep["results"]["codimension"] == 2


def test_cli_colon_saturate(capsys):
    rep = run_json(capsys, "colon", MONOMIAL, "I", "J")
    assert rep["results"]["result"] == {"unit": True}
    rep = run_json(capsys, "saturate", MONOMIAL, "J", "I")
    assert rep["results"]["result"] == {"unit": True}


def test_cli_fiber_all(capsys):
    rep = run_json(capsys, "fiber", MONOMIAL, "--at", "q")
    res = rep["results"]
    assert res["row"] == ["b", "c"]
    assert res["correspondence"] == ["a^2", "b", "c"]
    assert res["stabilized_at"] == 2 and res["confirmed"]
    assert res["morphism"] == {"unit": True}
    assert res["chain_verified"]
    assert res["codimensions"] == {
        "row": 2,
        "correspondence": 3,
        "morphism": {"unit": True},
    }


def test_cli_fiber_all_computes_each_fiber_once(capsys, monkeypatch):
    calls = []
    original = MapContext.correspondence_fiber_ideal

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MapContext, "correspondence_fiber_ideal", counted)
    rep = run_json(capsys, "fiber", MONOMIAL, "--at", "q", "--kind", "all")
    assert rep["results"]["correspondence"] == ["a^2", "b", "c"]
    assert len(calls) == 1


def test_cli_fiber_kind_selection(capsys):
    rep = run_json(capsys, "fiber", CUBICS, "--at", "q", "--kind", "morphism")
    assert rep["results"] == {"morphism": ["x0*x1 - x2^2"]}
    assert rep["field"] == {"characteristic": 0, "with_i": False}


def test_cli_spread(capsys):
    rep = run_json(capsys, "spread", QUARTIC)
    assert rep["results"]["analytic_spread"] == 2
    assert rep["results"]["special_fiber_dimension"] == 2


def test_cli_spread_runs_the_elimination_oracle_once(capsys, monkeypatch):
    calls = []
    original = MapContext.special_fiber_dimension

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(MapContext, "special_fiber_dimension", counted)
    rep = run_json(capsys, "spread", QUARTIC, "--trials", "2")
    assert rep["results"]["special_fiber_dimension"] == 2
    assert len(calls) == 1


def test_cli_birational(capsys):
    rep = run_json(capsys, "birational", QUARTIC)
    assert rep["results"]["birational"] is True
    rep = run_json(capsys, "birational", QUARTIC, "--certify", "e0")
    assert rep["results"] == {
        "birational": True,
        "mode": "certificate",
        "point": ["1", "0", "0", "0"],
    }


def test_cli_hks(capsys):
    rep = run_json(capsys, "hks", MATRICES, "--ideal", "IF", "--matrix", "M2", "--at", "e0")
    res = rep["results"]
    assert res["applicable"] and res["bound"] == 2 and res["rank"] == 3
    assert res["row_ideal"] == ["t"]


def test_cli_linear_rows(capsys):
    rep = run_json(capsys, "linear-rows", MONOMIAL, "--samples", "5")
    assert rep["results"] == {"verdict": "pass", "counterexample": None}
    rep = run_json(capsys, "linear-rows", QUARTIC, "--samples", "5")
    assert rep["results"]["verdict"] == "fail"
    assert rep["results"]["counterexample"] is not None


def test_cli_point_presentation(capsys):
    rep = run_json(capsys, "point-presentation", QUARTIC, "--power", "2")
    rows = rep["results"]["rows"]
    assert len(rows) == 9
    for row in rows:
        assert row["linear"] and row["codimension"] == 1


def test_cli_human_output_has_timing(capsys):
    code, out, err = run(capsys, "gb", MONOMIAL, "J")
    assert code == 0
    assert "elapsed:" in out and "groebner" in out


# -- determinism -------------------------------------------------------------


def test_cli_json_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, err = run(
            capsys, "birational", QUARTIC, "--seed", "7", "--json"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    # a different seed samples different witnesses
    _, other, _ = run(capsys, "birational", QUARTIC, "--seed", "8", "--json")
    a = json.loads(outputs[0])["results"]
    b = json.loads(other)["results"]
    assert a["birational"] == b["birational"]
    assert a["witness_point"] != b["witness_point"]


def test_cli_seed_flows_into_report(capsys):
    rep = run_json(capsys, "spread", QUARTIC, "--seed", "42")
    assert rep["seed"] == 42


def test_cli_fiber_of_a_monomial_map_with_coefficients(capsys, tmp_path):
    """The map's forms are its generators as written: q = phi(1:1) for
    phi = (2a^3 : b^3 : ab^2), so the fiber over q is the point (1:1)."""
    problem = tmp_path / "scaled_monomials.txt"
    problem.write_text(
        "field 32003\nvars a b\nideal I: 2*a^3 b^3 a*b^2\npoint q: 2 1 1\n"
    )
    rep = run_json(capsys, "fiber", str(problem), "--at", "q", "--kind", "morphism")
    assert rep["results"]["morphism"] == ["a - b"]


# -- exit codes --------------------------------------------------------------


def test_exit_validation(capsys):
    code, _, err = run(capsys, "gb", MONOMIAL, "NOPE")
    assert code == 2 and "unknown ideal" in err
    code, _, err = run(capsys, "gb", "/nonexistent/problem.txt", "I")
    assert code == 2 and "cannot read" in err
    code, _, err = run(capsys, "fiber", MONOMIAL, "--at", "e0")
    assert code == 2  # e0 lives in the source, not the target


@pytest.mark.parametrize("power", ["0", "-2"])
def test_exit_power_below_one(capsys, power):
    for command in ("linear-rows", "point-presentation"):
        code, _, err = run(capsys, command, QUARTIC, "--power", power)
        assert code == 2 and "power must be >= 1" in err, command


def test_exit_strict_unconfirmed(capsys):
    code, _, err = run(
        capsys, "fiber", MONOMIAL, "--at", "q", "--max-power", "2", "--strict"
    )
    assert code == 4 and "confirm" in err
    # without --strict the same run reports confirmed=false and exits 0
    rep = run_json(capsys, "fiber", MONOMIAL, "--at", "q", "--max-power", "2")
    assert rep["results"]["confirmed"] is False


def test_order_flag(capsys):
    rep = run_json(capsys, "gb", MONOMIAL, "J", "--order", "lex")
    assert rep["order"] == "lex"
    assert rep["results"]["groebner"] == ["a*b^2", "a*c^2", "b*c^2", "b^2*c"]


def test_cli_answers_do_not_change_under_rational_rescaling(capsys, tmp_path):
    """Scaling every form by 3/2 leaves the map unchanged, and scaling q
    leaves the point unchanged, so every answer is the same."""
    scaled = tmp_path / "plane_cubics_scaled.txt"
    scaled.write_text(
        "field 0\n"
        "vars x0 x1 x2\n"
        "ideal I: 3/2*x0^2*x1-3/2*x0*x2^2 3/2*x0*x1^2-3/2*x1*x2^2"
        " 3/2*x0*x1*x2-3/2*x2^3 3/2*x0^3+3/2*x1^3+3/2*x2^3\n"
        "point q: 0 0 0 1/3\n"
    )
    for command, *options in [
        ("fiber", "--at", "q", "--kind", "all"),
        ("spread",),
        ("birational", "--trials", "5"),
    ]:
        want = run_json(capsys, command, CUBICS, *options)["results"]
        assert run_json(capsys, command, str(scaled), *options)["results"] == want


# -- golden JSON -------------------------------------------------------------

GOLDEN = DATA / "golden"

# every README invocation, plus the fiber kinds, spread and birationality on
# the plane cubics over Q and on the monomial cover, and colon and saturation
# of non-monomial ideals over Q
GOLDEN_INVOCATIONS = [
    ("fiber", "monomial_cover.txt", "--at", "q", "--kind", "all"),
    ("spread", "quartic_curve.txt", "--trials", "5"),
    ("birational", "quartic_curve.txt", "--certify", "e0"),
    ("hks", "quartic_matrices.txt", "--ideal", "IF", "--matrix", "M2", "--at", "e0"),
    ("point-presentation", "quartic_curve.txt", "--power", "2"),
    ("gb", "monomial_cover.txt", "J"),
    ("colon", "monomial_cover.txt", "I", "J"),
    ("saturate", "monomial_cover.txt", "I", "J"),
    ("codim", "monomial_cover.txt", "I"),
    ("linear-rows", "monomial_cover.txt", "--samples", "50"),
    ("fiber", "plane_cubics.txt", "--at", "q", "--kind", "all"),
    ("fiber", "plane_cubics.txt", "--at", "q", "--kind", "row"),
    ("fiber", "plane_cubics.txt", "--at", "q", "--kind", "morphism"),
    ("spread", "plane_cubics.txt"),
    ("birational", "plane_cubics.txt"),
    ("spread", "monomial_cover.txt"),
    ("birational", "monomial_cover.txt"),
    ("colon", "conic_torsion.txt", "I", "J"),
    ("saturate", "conic_torsion.txt", "I", "J"),
]
GOLDEN_FLAGS = [(), ("--seed", "3"), ("--order", "lex")]


def golden_path(invocation, flags):
    """tests/data/golden/<command>_<file stem>_<options>[_<flags>].json"""
    command, problem, *options = invocation
    words = [command, problem.removesuffix(".txt"), *options, *flags]
    return GOLDEN / ("_".join(w.lstrip("-") for w in words) + ".json")


@pytest.mark.parametrize("flags", GOLDEN_FLAGS, ids=["default", "seed3", "lex"])
@pytest.mark.parametrize(
    "invocation", GOLDEN_INVOCATIONS, ids=[" ".join(i) for i in GOLDEN_INVOCATIONS]
)
def test_cli_json_matches_golden(capsys, invocation, flags):
    """--json output is byte-identical to the recorded answer."""
    command, problem, *options = invocation
    code, out, err = run(capsys, command, str(DATA / problem), *options, *flags, "--json")
    assert code == 0, err
    assert out == golden_path(invocation, flags).read_text()


def test_golden_directory_holds_exactly_the_golden_invocations():
    """A golden file no invocation names, or an invocation with no golden
    file, fails here instead of going unnoticed."""
    expected = {golden_path(i, f).name for i in GOLDEN_INVOCATIONS for f in GOLDEN_FLAGS}
    assert {p.name for p in GOLDEN.iterdir()} == expected
