import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bggkit import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kostant_example(capsys):
    code, out, _ = run_cli(capsys, "kostant", "--type", "A2", "--nu", "2,2")
    assert code == 0
    assert out.strip() == "3"


def test_roots_a1(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "A1")
    assert code == 0
    assert "1 positive roots" in out


def test_roots_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "G2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["num_positive"] == 6
    assert data["positive_roots"][-1] == [3, 2]


def test_block_json_example(capsys):
    code, out, _ = run_cli(capsys, "block", "--type", "A1", "--weight", "0",
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert data["D"] == [[1, 1], [0, 1]]
    assert data["C"] == [[1, 1], [1, 2]]
    assert data["class"] == [[0], [-2]]


def test_decomp_text(capsys):
    code, out, _ = run_cli(capsys, "decomp", "--type", "A1", "--weight", "-1")
    assert code == 0
    assert "1 weights" in out


def test_weyl_orbit(capsys):
    code, out, _ = run_cli(capsys, "weyl-orbit", "--type", "A1",
                           "--weight", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["orbit"] == [[0], [-2]]
    assert data["antidominant"] is False


def test_weyl_orbit_convention_flag(capsys):
    _, out_strict, _ = run_cli(capsys, "weyl-orbit", "--type", "A1",
                               "--weight", "-1", "--json")
    assert json.loads(out_strict)["antidominant"] is True
    _, out_wide, _ = run_cli(capsys, "weyl-orbit", "--type", "A1",
                              "--weight", "-1", "--antidominance", "wide",
                              "--json")
    assert json.loads(out_wide)["antidominant"] is False


def test_linked_partition(capsys):
    code, out, _ = run_cli(capsys, "linked", "--type", "A1",
                           "--weights", "3;-5;-4;0")
    assert code == 0
    data = json.loads(out)
    assert data == [[[3], [-5]], [[-4]], [[0]]]


def test_central_char(capsys):
    code, out, _ = run_cli(capsys, "central-char", "--type", "A2",
                           "--weight", "1,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert "chi_of_casimir" in data and "psi_of_casimir" in data


def test_norm_command(capsys):
    element = json.dumps([{"exps": [0, 0, 1], "coef": "5"}])
    code, out, _ = run_cli(capsys, "norm", "--type", "A1", "--prime", "5",
                           "--log-radius", "1/2", "--element", element,
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert data["norms"][0]["log_norm"] == "-1/2"


def test_norm_pair_submultiplicative(capsys):
    x = json.dumps([{"exps": [0, 0, 1], "coef": 1}])
    y = json.dumps([{"exps": [1, 0, 0], "coef": 1}])
    code, out, _ = run_cli(capsys, "norm", "--type", "A1", "--prime", "2",
                           "--log-radius", "1", "--element", x,
                           "--element", y, "--json")
    assert code == 0
    assert json.loads(out)["submultiplicative"] is True


def test_shapovalov_command(capsys):
    code, out, _ = run_cli(capsys, "shapovalov", "--type", "A1",
                           "--weight", "3", "--nu", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == [[12]]
    assert data["rank"] == 1


def test_maximal_vectors_command(capsys):
    code, out, _ = run_cli(capsys, "maximal-vectors", "--type", "A1",
                           "--weight", "3", "--nu", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["vectors"][0][0]["exps"] == [4]


def test_verma_mult_command(capsys):
    code, out, _ = run_cli(capsys, "verma-mult", "--type", "A2",
                           "--weight", "0,0", "--nu", "1,1")
    assert code == 0
    assert out.strip() == "2"


def test_verma_mult_table(capsys):
    code, out, _ = run_cli(capsys, "verma-mult", "--type", "A1",
                           "--weight", "0", "--depth", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert {"nu": [2], "dimension": 1} in data["dimensions"]


def test_cartan_file_input(tmp_path, capsys):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]]}))
    code, out, _ = run_cli(capsys, "roots", "--cartan-file", str(path),
                           "--json")
    assert code == 0
    assert json.loads(out)["num_positive"] == 3


# -- exit codes ---------------------------------------------------------------

def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["kostant", "--type", "A2"])  # missing --nu
    assert exc.value.code == 2


def test_missing_system_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "kostant", "--nu", "1,1")
    assert code == 2
    assert "type" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "decomp", "--type", "A1",
                           "--weight", "1/2")
    assert code == 1
    assert "integral" in err


def test_non_finite_type_is_domain_error(tmp_path, capsys):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"cartan": [[2, -2], [-2, 2]]}))
    code, _, err = run_cli(capsys, "roots", "--cartan-file", str(path))
    assert code == 1
    assert "finite type" in err


def test_selftest_fast(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--fast", "--type", "A1")
    assert code == 0
    assert "PASS criterion-01" in out
    assert "PASS criterion-02" in out
    assert "criterion-03" not in out


def test_selftest_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "selftest", "--fast", "--type", "A1",
                         "--seed", "7")
    _, out2, _ = run_cli(capsys, "selftest", "--fast", "--type", "A1",
                         "--seed", "7")
    assert out1 == out2


def test_json_outputs_are_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "block", "--type", "A2", "--weight", "0,0",
                         "--json")
    _, out2, _ = run_cli(capsys, "block", "--type", "A2", "--weight", "0,0",
                         "--json")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["weyl-orbit", "--weight", "1,2,3"],
    ["weyl-orbit", "--weight", "1"],
    ["block", "--weight", "0,0,0"],
    ["central-char", "--weight", "1"],
    ["decomp", "--weight", "0"],
    ["linked", "--weights", "0,0;1"],
    ["maximal-vectors", "--weight", "1,1", "--nu", "1,1,1"],
    ["verma-mult", "--weight", "1,1", "--nu", "1,1,1"],
    ["verma-mult", "--weight", "1,1,1"],
    ["shapovalov", "--weight", "1,1", "--nu", "1"],
    ["shapovalov", "--weight", "1", "--nu", "1,1"],
    ["kostant", "--nu", "1,1,1"],
], ids=lambda argv: "-".join(argv[::2]))
def test_wrong_rank_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--type", "A2", *argv[1:])
    assert code == 1
    assert "wrong rank" in err
    assert out == ""


@pytest.mark.parametrize("exps", ["001", [0, 0, 1.9], [0, 0, True], [0, 0, "1"]],
                         ids=["string", "float", "bool", "string-entry"])
def test_norm_rejects_non_integer_exponents(capsys, exps):
    element = json.dumps([{"exps": exps, "coef": "5"}])
    code, out, err = run_cli(capsys, "norm", "--type", "A1", "--prime", "5",
                             "--element", element)
    assert code == 2
    assert "exponent" in err
    assert out == ""


# -- norm: large values and random input ----------------------------------------

def test_norm_beyond_float_range(capsys):
    # 5^1000 does not fit in a float; the exact log norm is still reported
    element = json.dumps([{"exps": [0, 0, 1], "coef": "1"}])
    argv = ["norm", "--type", "A1", "--prime", "5", "--log-radius", "1000",
            "--element", element]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    row = json.loads(out)["norms"][0]
    assert row["log_norm"] == 1000
    assert row["norm_decimal"] is None
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "log_5|u| = 1000  (|u| = 5^(1000) ~ inf)\n"


_ALGEBRA_DIM = {"A1": 3, "A2": 8, "B2": 10}
_COEFS = st.one_of(st.integers(-30, 30),
                   st.sampled_from(["1/2", "-25/3", "10007", "0", "x", "1/0"]),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.none(), st.booleans())


@st.composite
def _norm_argv(draw):
    label = draw(st.sampled_from(sorted(_ALGEBRA_DIM)))
    d = _ALGEBRA_DIM[label]
    exps = st.one_of(
        st.lists(st.integers(0, 3), min_size=d, max_size=d),
        st.lists(st.integers(-1, 3), min_size=d - 1, max_size=d + 1),
        st.integers(), st.text(max_size=3),
        st.lists(st.one_of(st.text(max_size=2), st.none()), max_size=3))
    row = st.one_of(st.fixed_dictionaries({"exps": exps, "coef": _COEFS}),
                    st.integers(), st.dictionaries(st.text(max_size=4),
                                                   st.integers(), max_size=2))
    element = st.one_of(st.lists(row, max_size=4).map(json.dumps),
                        st.text(max_size=6))
    argv = ["norm", "--type", label,
            "--prime=%d" % draw(st.sampled_from([0, 1, 2, 4, 5, -3, 10007])),
            "--log-radius=" + draw(st.sampled_from(
                ["1/2", "3", "0", "-1/2", "abc", "1/0", "1000"]))]
    for text in draw(st.lists(element, min_size=1, max_size=2)):
        argv.append("--element=" + text)
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=100, deadline=None)
@given(_norm_argv())
def test_norm_exit_codes_on_random_input(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)
