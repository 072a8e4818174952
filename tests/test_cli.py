import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bggkit
from bggkit import category, cli, rootdata, selftest
from bggkit.errors import ConsistencyError
from bggkit.rootdata import build_root_system


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


def test_shapovalov_rank_disagreement_is_a_consistency_error(capsys, monkeypatch):
    radical_rank = category.simple_weight_mult
    monkeypatch.setattr(category, "simple_weight_mult",
                        lambda alg, lam, nu: radical_rank(alg, lam, nu) + 1)
    code, out, err = run_cli(capsys, "shapovalov", "--type", "A2",
                             "--weight", "1,1", "--nu", "1,1", "--json")
    assert code == cli.EXIT_CONSISTENCY
    assert out == ""
    assert err == ("internal consistency error: Shapovalov matrix has rank 2, "
                   "the radical recursion gives 3\n")


@pytest.mark.parametrize("argv", [
    ["weyl-orbit", "--weight", "0,0"],
    ["decomp", "--weight", "0,0"],
    ["block", "--weight", "0,0"],
], ids=lambda argv: argv[0])
def test_orbit_past_the_enumeration_cap_is_refused(capsys, monkeypatch, argv):
    # a regular A2 orbit has 6 weights; with the cap at 5 it is refused
    monkeypatch.setattr(rootdata, "WEYL_ENUMERATION_CAP", 5)
    monkeypatch.setattr(cli, "cached_root_system", build_root_system)
    code, out, err = run_cli(capsys, *argv[:1], "--type", "A2", *argv[1:])
    assert (code, out, err) == (cli.EXIT_DOMAIN, "",
                                "error: Weyl group too large to enumerate\n")


def test_linked_past_the_enumeration_cap_is_answered(capsys, monkeypatch):
    # linkage compares dominant points and walks no orbit, so no cap applies
    monkeypatch.setattr(rootdata, "WEYL_ENUMERATION_CAP", 5)
    monkeypatch.setattr(cli, "cached_root_system", build_root_system)
    code, out, err = run_cli(capsys, "linked", "--type", "A2", "--weights", "0,0;-2,1;1,0")
    assert (code, err) == (0, "")
    assert json.loads(out) == [[[0, 0], [-2, 1]], [[1, 0]]]
    # |W(E7)| = 2,903,040: 0 and s_1 . 0 are linked, 0 and omega_1 are not
    code, out, err = run_cli(capsys, "linked", "--type", "E7",
                             "--weights", "0,0,0,0,0,0,0;-2,0,1,0,0,0,0;1,0,0,0,0,0,0")
    assert (code, err) == (0, "")
    assert json.loads(out) == [[[0] * 7, [-2, 0, 1, 0, 0, 0, 0]], [[1] + [0] * 6]]


def test_linked_reads_one_linkage_key_per_weight(capsys, monkeypatch):
    calls = []
    linkage_key = rootdata.RootSystem.linkage_key

    def counted(self, lam):
        calls.append(lam)
        return linkage_key(self, lam)

    def refused(self, lam, mu):
        raise AssertionError("linked compares weights pairwise")

    monkeypatch.setattr(rootdata.RootSystem, "linkage_key", counted)
    monkeypatch.setattr(rootdata.RootSystem, "is_linked", refused)
    weights = "1/2,0;0,0;-5/2,3;1/3,-2/3;-2,2;1/2,1;0,0"
    code, out, err = run_cli(capsys, "linked", "--type", "B2", "--weights", weights)
    assert (code, err) == (0, "")
    assert len(calls) == 7
    assert json.loads(out) == [[["1/2", 0], ["-5/2", 3]], [[0, 0], [-2, 2], [0, 0]],
                               [["1/3", "-2/3"]], [["1/2", 1]]]


def test_block_past_the_weyl_cap_walks_only_its_orbit(capsys):
    # |W(E7)| = 2,903,040 is past the cap; the dot orbit of -rho is {-rho}
    code, out, err = run_cli(capsys, "block", "--type", "E7",
                             "--weight=-1,-1,-1,-1,-1,-1,-1", "--json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["D"] == data["C"] == [[1]]


def test_maximal_vectors_command(capsys):
    code, out, _ = run_cli(capsys, "maximal-vectors", "--type", "A1",
                           "--weight", "3", "--nu", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["vectors"][0][0]["exps"] == [4]


def test_maximal_vectors_off_gamma(capsys):
    # like verma-mult and shapovalov: the weight space at nu is zero
    code, out, err = run_cli(capsys, "maximal-vectors", "--type", "A1",
                             "--weight", "0", "--nu", "-1")
    assert (code, out, err) == (0, "0 maximal vector(s) at nu=-1\n", "")


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


def test_verma_mult_table_builds_no_weight_space(capsys, monkeypatch):
    calls = []
    basis = category.weight_space_basis
    monkeypatch.setattr(category, "weight_space_basis",
                        lambda *args: calls.append(args) or basis(*args))
    code, out, _ = run_cli(capsys, "verma-mult", "--type", "B2",
                           "--weight", "0,0", "--depth", "5")
    assert code == 0
    assert "  nu=2,2        dim 4\n" in out
    assert calls == []
    code, out, _ = run_cli(capsys, "verma-mult", "--type", "B2",
                           "--weight", "0,0", "--nu", "2,2")
    assert (code, out) == (0, "4\n")
    assert calls


def test_cartan_file_input(tmp_path, capsys):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]]}))
    code, out, _ = run_cli(capsys, "roots", "--cartan-file", str(path),
                           "--json")
    assert code == 0
    assert json.loads(out)["num_positive"] == 3


@pytest.mark.parametrize("cartan", [
    5, "2,-1;-1,2", [[2, -1], 5], [[2, "x"], [-1, 2]], [[2.9, -1], [-1, 2]],
    [[2, -1.5], [-1, 2]], [[2, False], [False, 2]], [[2, None], [-1, 2]],
], ids=["int", "string", "row-int", "string-entry", "float-diagonal", "float",
        "bool", "null"])
def test_malformed_cartan_file_is_usage_error(tmp_path, capsys, cartan):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"cartan": cartan}))
    code, out, err = run_cli(capsys, "roots", "--cartan-file", str(path))
    assert code == 2
    assert "integers" in err
    assert out == ""


def test_every_export_resolves():
    missing = [name for name in bggkit.__all__ if not hasattr(bggkit, name)]
    assert missing == []
    assert len(set(bggkit.__all__)) == len(bggkit.__all__)


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


def test_non_symmetrizable_cartan_file_is_domain_error(tmp_path, capsys):
    path = tmp_path / "nonsym.json"
    path.write_text(json.dumps({"cartan": [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]]}))
    code, out, err = run_cli(capsys, "roots", "--cartan-file", str(path))
    assert (code, out) == (1, "")
    assert "exceeded height bound" in err


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


def test_selftest_fast_finishes_on_f4(capsys):
    # criterion 2 counts Kostant partitions over all 24 positive roots
    code, out, _ = run_cli(capsys, "selftest", "--type", "F4", "--fast")
    assert code == 0
    assert "PASS criterion-02 kostant-brute-force: 495 vectors exact over F4" in out


def test_selftest_failure_lines_and_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "_kostant_brute_force", lambda rs, nu: 0)
    code, out, err = run_cli(capsys, "selftest", "--type", "A1", "--fast")
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert lines[1].startswith("PASS criterion-01 ")
    assert lines[2:] == [
        "FAIL criterion-02 kostant-brute-force: mismatch at (0,) in A1",
        "SELFTEST FAILED"]


def test_selftest_consistency_error_fails_its_criterion(capsys, monkeypatch):
    def broken(rs, nu):
        raise ConsistencyError("partition table corrupt")

    monkeypatch.setattr(selftest, "_kostant_brute_force", broken)
    code, out, err = run_cli(capsys, "selftest", "--type", "A1", "--fast")
    assert (code, err) == (3, "")
    assert out.splitlines()[2:] == [
        "FAIL criterion-02 kostant-brute-force: consistency error: "
        "partition table corrupt",
        "SELFTEST FAILED"]


# sha256 of the stdout of each selftest run, recorded when criterion 1
# evaluated every one of the d^3 ordered basis triples
SELFTEST_DIGESTS = {
    "selftest --fast":
        "427716910a35bbf1f026e30bfe6dca5fa8a0e64d4bf6256f087e23de01f8ca27",
    "selftest --type G2 --fast":
        "66545215539c497e976660f827a324cba90e36b0893842138b9abd6cab20706a",
}


@pytest.mark.parametrize("command", sorted(SELFTEST_DIGESTS))
def test_selftest_output_matches_recorded_digest(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_DIGESTS[command]


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


@pytest.mark.parametrize("argv", [
    ["weyl-orbit", "--weight", "-1,0"],
    ["weyl-orbit", "--weight", "-1/2,0", "--json"],
    ["linked", "--weights", "-1,0;0,0"],
    ["verma-mult", "--nu", "-1,2", "--weight", "-2,1", "--json"],
    ["shapovalov", "--weight", "-1,-1", "--nu", "1,1"],
    ["kostant", "--nu", "-1,2"],
], ids=lambda argv: "-".join(argv))
def test_negative_first_coordinate_as_separate_value(capsys, argv):
    joined = []
    for arg in argv:
        if joined and joined[-1] in ("--weight", "--weights", "--nu"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    separate = run_cli(capsys, argv[0], "--type", "A2", *argv[1:])
    assert separate[0] == 0
    assert separate == run_cli(capsys, joined[0], "--type", "A2", *joined[1:])


def test_option_followed_by_option_is_still_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["weyl-orbit", "--type", "A2", "--weight", "--json"])
    assert exc.value.code == 2
    assert "argument --weight: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("exps", ["001", [0, 0, 1.9], [0, 0, True], [0, 0, "1"]],
                         ids=["string", "float", "bool", "string-entry"])
def test_norm_rejects_non_integer_exponents(capsys, exps):
    element = json.dumps([{"exps": exps, "coef": "5"}])
    code, out, err = run_cli(capsys, "norm", "--type", "A1", "--prime", "5",
                             "--element", element)
    assert code == 2
    assert "exponent" in err
    assert out == ""


def test_norm_large_primes(capsys):
    element = json.dumps([{"exps": [1, 0, 1], "coef": 1}])
    code, out, _ = run_cli(capsys, "norm", "--type", "A1", "--prime",
                           str(2 ** 61 - 1), "--element", element)
    assert code == 0
    assert out.startswith("log_2305843009213693951|u| = 2 ")
    bound = "3317044064679887385961981"
    code, out, err = run_cli(capsys, "norm", "--type", "A1", "--prime", bound,
                             "--element", element)
    assert code == 1
    assert out == ""
    assert err == (f"error: cannot decide whether {bound} is prime: primality "
                   f"is only decided below {bound}\n")


# sha256 of the `--json` stdout of each command, recorded with the earlier
# Fraction Gauss-Jordan kernels, inverse Cartan matrix and per-module
# root-lattice tests
JSON_DIGESTS = {
    "block --type A1 --weight 10":
        "9b6b6cbe0806933bc27051c617a6fdac49e798d6f7fcca8fbb660def4561bbad",
    "block --type A2 --weight 0,0":
        "df30eb6612e92e77216c47674c62feae7c7af91652a8d4fd0ee79dd6a837dfb0",
    "block --type A2 --weight 3,2":
        "2545921e759212689c71f18bbb47b99f2437297b5a67d3dad199fc28f061f83e",
    "block --type B2 --weight 0,0":
        "7c547872bd617fb72183229ab86958a1721782d8f8974afb44a888638a8a80a6",
    "block --type B2 --weight 1,1":
        "b22330b7a4fffbd783001bfea40722de0ea108283f7f5fc3f981fb8d3b31cdc4",
    "block --type G2 --weight=0,-1":
        "804eb6c9b3c324be8a4331ea69ee72ddeb41c0aadda2cac07cb9d97fb2cc799c",
    # recorded before the tables were read off the inverse of D
    "block --type G2 --weight 0,0":
        "659d1b41a3bea73d934cfe044174417fb9ac3ae3449e77ea47ab0cc02a2e93c2",
    "block --type A3 --weight 0,0,0":
        "0eff8287334fad03c4cc5e9db43743ea36f51c16e0ce720ba6ca0c90bb8db28b",
    "decomp --type B2 --weight 1,1":
        "364493e9f823e91da969edcc069f3d78fcc8b49cb2fa5e23a9c51c36e940e2a4",
    "maximal-vectors --type A2 --weight 1,1 --nu 2,2":
        "a0e3997bedb8b2a0bb773b3fb6f7c727991da9a01d2c9cf278763cc55530c50e",
    "maximal-vectors --type B2 --weight 1,0 --nu 2,2":
        "fb6911dd642c5924b1e4f160a8dd44cf8a459cbfc3c37df4f012bcc64a43ddd6",
    "maximal-vectors --type A2 --weight 0,0 --nu 2,2":
        "dce033d260de296fc3880adb7c097d92ca3dee222fa74476e725fd30ceaa4ed1",
    "maximal-vectors --type B2 --weight 0,0 --nu 3,4":
        "dedf41852812d5ec0641e0fe60e67d314f5b75fdd7f753632a271f4805937e21",
    "central-char --type B2 --weight 1/2,1":
        "e5b30411e058f3877092fcb4d96bc4b5f568c59747b13d0c3d66b2d6b03cee29",
    # denominators 2, 3 and 6 at once, recorded before the integer scan
    "central-char --type A3 --weight=-1/3,5/2,-7/6":
        "f48194a8647b02838224dbfa92a3c30426ae66fffb89088e7efeeaebb564739d",
    "central-char --type G2 --weight 0,0":
        "391e75b98c4ae6c8aefe4ca665461d66547b91f7a50df213af389f6bd2f79cb2",
    "central-char --type F4 --weight 1,0,0,1":
        "99e72217af2e2a0523d50312763c9d76e668c95045ceb6b834be3ffa84ef75a4",
    "central-char --type E6 --weight 0,0,0,0,0,0":
        "55774c05295f39ad66080f0917c1435b904a20a2c5ce6308e036c670e3bb8427",
    # recorded when the table enumerated every PBW monomial to the depth
    "verma-mult --type A3 --weight 0,0,0 --depth 20":
        "5695d7a4129c27825fa2ec6db6fa36677aa65875e7efa6eece2b5b183e130336",
    # recorded when linked compared each weight with every class so far:
    # classes in order of first appearance, rational weights among them,
    # and a pair past the Weyl-group cap
    "linked --type A1 --weights 3;-5;-4":
        "a19d6bae085ecef149fda0daf915482faadd16a0589a4ff35c7e18bb95a55261",
    "linked --type B2 --weights 1/2,0;0,0;-5/2,3;1/3,-2/3;-2,2;1/2,-5;-7/3,2;1/2,1;3/2,-2;0,0":
        "51d34b02ac48a5ece8d5294051dd13bd00ea66412b164d82bbc0dce9da6f2160",
    "linked --type E7 --weights 0,0,0,0,0,0,0;-2,0,1,0,0,0,0":
        "fc8e77242e8ddc54a232363534100c2b417515e2d4faa15ac25e86f133e36dee",
    # recorded when each entry was the U(h) part of the full product
    # sigma(y^A) * y^B
    "shapovalov --type B2 --weight 0,0 --nu 3,3":
        "8974ab867fefb24f37f9676173209b626a2548f5a4814ed90d19fe42575c139f",
    "shapovalov --type A3 --weight 0,0,0 --nu 2,2,1":
        "4b9b2037bada0d1e974c7905b341a5c94cf5a30bd5f0f7b3126251f23f750ce1",
    "shapovalov --type G2 --weight 0,0 --nu 2,4":
        "9290f68aaa84d46befdcc8f99610fa8cb00a8a7588e0a4d5912950549c88bb98",
    "shapovalov --type A2 --weight 1/2,1 --nu 2,2":
        "718e940c3c2bfe510e7fabcd69cdffeb313a9d576b3b1302f7a0bc46088e89da",
    # recorded when each entry was one straightened word sigma(y^A) y^B
    "shapovalov --type A3 --weight 1/2,0,1/3 --nu 3,3,3":
        "7d5c49c5437c6a2ddeca37c580c693639f4db675a3487e44ebe9154834c98631",
    "shapovalov --type G2 --weight 0,0 --nu 4,3":
        "f29552fe9d2ab104dc8c009d763b4b54b5dea29b0bff958139e85f61ce0cef8d",
    # recorded when each log norm was a Fraction-valued dataclass: p in
    # {2, 5}, s in {1, 3/2}, p only in a numerator or only in a denominator,
    # the zero element, and a pair (the submultiplicativity verdict)
    ('norm --type A1 --prime 2 --log-radius 1 '
     '--element [{"exps":[1,0,1],"coef":"12/7"},{"exps":[0,1,0],"coef":-5}]'):
        "21581e5076ddb4eb1eefd9866b5705bb95a4ab041c51afd6d4255fee6df33408",
    ('norm --type A1 --prime 5 --log-radius 3/2 '
     '--element [{"exps":[0,1,0],"coef":"3/25"},{"exps":[0,0,0],"coef":"7/10"}]'):
        "09b4cdb5067f7b53fff66cc9819c08e03f4938e6ad43bbfa74a22201907800bd",
    ('norm --type B2 --prime 5 --log-radius 1 '
     '--element []'):
        "1fab5bbde865e0ce39679a122876879c3db8c9dbae71548346b0d20bd24a83fa",
    ('norm --type A2 --prime 2 --log-radius 3/2 '
     '--element [{"exps":[1,0,0,0,0,0,0,1],"coef":"-8/3"},{"exps":[0,0,0,1,0,0,0,0],"coef":"1/6"}] '
     '--element [{"exps":[0,1,0,0,0,0,1,0],"coef":"5/4"},{"exps":[0,0,0,0,0,0,0,0],"coef":"20"}]'):
        "44ab54a600c10457f7c2d56d681ca23fd2756f343812cd84546b47aea28f306d",
    ('norm --type G2 --prime 5 --log-radius 1 '
     '--element [{"exps":[0,0,0,0,0,0,1,1,0,0,0,0,0,0],"coef":"1250/7"},{"exps":[0,0,0,0,0,0,0,0,0,0,0,0,0,1],"coef":"-500"}]'):
        "3b169af6a9097ad4f5f2d1c48c2fe42f27e645526bc01f6f1fe1b06ed7a957bb",
    ('norm --type B2 --prime 2 --log-radius 3/2 '
     '--element [{"exps":[0,0,0,0,1,0,0,0,0,0],"coef":"9/16"},{"exps":[0,0,0,0,0,0,0,0,0,3],"coef":"-24"}]'):
        "ef16cc4566eacdc7e851dd8bf848e083cd65ddae0cb0056d6863f2f0fedf34e5",
}

# sha256 of the text stdout of the norm rows of JSON_DIGESTS, recorded with them
TEXT_DIGESTS = {
    ('norm --type A1 --prime 2 --log-radius 1 '
     '--element [{"exps":[1,0,1],"coef":"12/7"},{"exps":[0,1,0],"coef":-5}]'):
        "dd51d04c06819792e8cd4861de55520e78563c17c29687148e9855eca5a7717e",
    ('norm --type A1 --prime 5 --log-radius 3/2 '
     '--element [{"exps":[0,1,0],"coef":"3/25"},{"exps":[0,0,0],"coef":"7/10"}]'):
        "42f11e205966c9b985e3fc9d8905d3b596551b2c29e0b97e1cc085bb3f0b54bf",
    ('norm --type B2 --prime 5 --log-radius 1 '
     '--element []'):
        "476a52572f803ab5adbbcb664e95b5ebec73190714cc24d4de9532875ec87c64",
    ('norm --type A2 --prime 2 --log-radius 3/2 '
     '--element [{"exps":[1,0,0,0,0,0,0,1],"coef":"-8/3"},{"exps":[0,0,0,1,0,0,0,0],"coef":"1/6"}] '
     '--element [{"exps":[0,1,0,0,0,0,1,0],"coef":"5/4"},{"exps":[0,0,0,0,0,0,0,0],"coef":"20"}]'):
        "a6caea5a1709d5c8e4d71648ebdac91978abecfa0d7183ba441073fe1a770cce",
    ('norm --type G2 --prime 5 --log-radius 1 '
     '--element [{"exps":[0,0,0,0,0,0,1,1,0,0,0,0,0,0],"coef":"1250/7"},{"exps":[0,0,0,0,0,0,0,0,0,0,0,0,0,1],"coef":"-500"}]'):
        "744e352e328eb78d524962d2135fd54729d394cc9f04fb9c94816d1f98c61cd7",
    ('norm --type B2 --prime 2 --log-radius 3/2 '
     '--element [{"exps":[0,0,0,0,1,0,0,0,0,0],"coef":"9/16"},{"exps":[0,0,0,0,0,0,0,0,0,3],"coef":"-24"}]'):
        "fe0b6ed3fbcc237e6b807aed459c054a154bdbca519c7798c5dc7a8f6767d1cd",
}


@pytest.mark.parametrize("command", sorted(JSON_DIGESTS))
def test_json_output_matches_recorded_digest(capsys, command):
    code, out, err = run_cli(capsys, *command.split(), "--json")
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(TEXT_DIGESTS))
def test_text_output_matches_recorded_digest(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_DIGESTS[command]


# sha256 of stdout, stderr and the exit code of help and usage-error calls at
# an 80-column terminal, recorded when every call built all twelve subcommands
CLI_SURFACE_DIGESTS = {
    "--help":
        "a4b498e2370f85387f2f0b6533d681a532169cb3018369201a7e3a1d6128274e",
    "":
        "75e1f7592db28f5450a2e7083f0bd96e536a2e03a027f9c5a15bc36be68612fd",
    "roots --help":
        "875b55da0b1f229a6c207a1440ed33c056be3b62d00f246e612b67c10f15164c",
    "weyl-orbit --help":
        "fc552d31ccb6e688b1ffc0662421c2888c6d045886997d1d4cf420eca99d4ae7",
    "kostant --help":
        "894c34b42bf5d1d974846f51a609451f4f809ab14da62e313d263032a2334abf",
    "verma-mult --help":
        "2a6447a7e411e7463e15f112871dcb252b85ed06358a2ebc67bd2cbed70b873f",
    "central-char --help":
        "30169bb034ffb95362497bba8e5fa51ab5c012c246932ad99b531dc3439b3ba4",
    "linked --help":
        "1366a3ea6523a0ce40885ab94dae0079045a1512d7b6bcdf12120488e8c7abc9",
    "norm --help":
        "a6f2919c4485c6a3b14bba71cd6261ba3e7863d6706112a513d9b1534dfe88a6",
    "shapovalov --help":
        "e545823dc9a890dc21081133ef3c3b193c0d7beb08ea3c11d2d0a9d7d2a222b8",
    "maximal-vectors --help":
        "26491df9e92018df4812b180674197e6ad734f45e3abbe467062f08668d0624c",
    "decomp --help":
        "e954fd1e19777c50929f30e0fb3db9801ec839bc78748cd7538a3c91822a217d",
    "block --help":
        "0f342257c2e1650b307a31ea6cba4d145208a522274493c2d1536d5a72b57f2e",
    "selftest --help":
        "e136aaf3dee9decb41f6cc0d243ce74fb1a3b609e3c2c2d689265166c2eb9271",
    "blok":
        "77876e475d53aafb1f6374f8fd1fd29a049b339fce208711beb14cfb4728964b",
    "block --type A2 --weight 0,0 extra":
        "9eb797c0d42759f098b72bee202cb49eef796cce2161230faa605f47d7782d90",
    "block --type A2 --weight 0,0 --bogus":
        "1fe222cf6e768ed28d25b782ffc733ce898c80326a6f50253d24cf3469312094",
    "weyl-orbit --type A2 --weight 0,0 --antidominance bogus":
        "fda534769ef53a1567dd99b80228e816ad9e869827232905e108d662eae93c26",
    "verma-mult --type A2 --weight 0,0 --depth two":
        "8af8c00a0d49f514fbe743531e9abefc578dfcbf0bdc47512b4a46453843df20",
    "-- block --type A2 --weight 0,0":
        "f770b2c8964321a72bcc3b7c89f07afec04fd160c4dde71d31985a66cc060c20",
}


@pytest.mark.parametrize("command", sorted(CLI_SURFACE_DIGESTS),
                         ids=lambda command: command or "no-arguments")
def test_cli_surface_matches_recorded_digest(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(command.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    digest = hashlib.sha256(f"{out}\0{err}\0{code}".encode()).hexdigest()
    assert digest == CLI_SURFACE_DIGESTS[command]


def test_each_call_builds_only_its_own_subcommand(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, *args, **kw: built.append(
                            add_parser(self, *args, **kw)) or built[-1])
    argv = ["block", "--type", "A1", "--weight", "0", "--json"]
    assert run_cli(capsys, *argv)[0] == 0
    assert len(built) == 1
    assert run_cli(capsys, *argv)[0] == 0
    assert len(built) == 2
    assert built[0] is not built[1]


# -- norm: large values and random input ----------------------------------------

def test_norm_of_zero(capsys):
    argv = ["norm", "--type", "A1", "--element", "[]"]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, "log_2|u| = -inf  (|u| = 0 ~ 0)\n")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["norms"][0]["log_norm"] is None


def test_bad_log_radius_wins_over_bad_type(capsys):
    code, out, err = run_cli(capsys, "norm", "--type", "Q1", "--log-radius",
                             "x", "--element", "[]")
    assert (code, out, err) == (2, "", "usage error: cannot parse log-radius 'x'\n")


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


_RANK = {"A1": 1, "A2": 2, "B2": 2, "G2": 2}
_ATOMS = st.one_of(st.integers(-3, 4).map(str),
                   st.sampled_from(["1/2", "-3/2", "2/3", "x", "", "1/0"]))


@st.composite
def _vector(draw, rank):
    size = draw(st.one_of(st.just(rank), st.integers(0, 3)))
    return ",".join(draw(st.lists(_ATOMS, min_size=size, max_size=size)))


@st.composite
def _small_argv(draw):
    label = draw(st.sampled_from(sorted(_RANK)))
    command = draw(st.sampled_from(
        ["roots", "kostant", "weyl-orbit", "linked", "central-char"]))
    argv = [command, "--type", label]
    vector = _vector(_RANK[label])
    if command == "kostant":
        argv.append("--nu=" + draw(vector))
    elif command == "linked":
        argv.append("--weights=" + ";".join(
            draw(st.lists(vector, min_size=1, max_size=3))))
    elif command != "roots":
        argv.append("--weight=" + draw(vector))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None)
@given(_small_argv())
def test_small_commands_exit_codes_on_random_input(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)


_WEIGHT_ATOMS = st.one_of(st.integers(-3, 3).map(str),
                          st.sampled_from(["1/2", "-3/2", "x", ""]))


@st.composite
def _nu_text(draw, rank):
    if draw(st.integers(0, 4)) == 0:  # malformed or of the wrong rank
        return draw(st.sampled_from(["1", "1,1,1", "a,b", "", "1/2"]))
    coords = draw(st.lists(st.integers(-1, 3), min_size=rank, max_size=rank)
                  .filter(lambda v: sum(v) <= 3))
    return ",".join(map(str, coords))


@st.composite
def _module_argv(draw):
    label = draw(st.sampled_from(["A1", "A2", "B2"]))
    rank = _RANK[label]
    command = draw(st.sampled_from(
        ["verma-mult", "shapovalov", "maximal-vectors", "decomp", "block"]))
    if draw(st.integers(0, 4)) == 0:  # malformed or of the wrong rank
        weight = draw(_vector(rank))
    else:
        weight = ",".join(draw(st.lists(_WEIGHT_ATOMS, min_size=rank,
                                        max_size=rank)))
    argv = [command, "--type", label, "--weight=" + weight]
    if command in ("verma-mult", "shapovalov", "maximal-vectors"):
        argv.append("--nu=" + draw(_nu_text(rank)))
    if command in ("verma-mult", "maximal-vectors") and draw(st.booleans()):
        argv.append("--depth=%d" % draw(st.integers(-3, 25)))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=100, deadline=None)
@given(_module_argv())
def test_module_commands_exit_codes_on_random_input(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)


def test_a_reader_closing_the_pipe_ends_the_command_quietly():
    """``bggkit weyl-orbit ... | head -1``: 900 kB of orbit, one line read."""
    src = str(Path(bggkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    argv = [sys.executable, "-m", "bggkit.cli", "weyl-orbit", "--type", "E6",
            "--weight", "1,0,0,0,0,0"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"dot orbit size 51840; antidominant (strict): False\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (1, b"")
