"""The acceptance gate: one test per criterion, exact, with a printed
pass/fail line each.  Run with -s to see the lines as they complete."""

import pytest

from bggkit import liealg, selftest


def _run(number):
    result = selftest.run_criterion(number)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_structure_constants():
    # Jacobi exhaustive over A1, A2, B2, G2; all constants integers
    _run(1)


@pytest.mark.parametrize("verdict", [False, True])
def test_criterion_01_fails_when_the_generator_check_disagrees(monkeypatch, verdict):
    """A wrong verdict either way: on the true table, and on a table the
    exhaustive search rejects."""
    monkeypatch.setattr(liealg, "_jacobi_by_generators", lambda alg, table: verdict)
    if verdict:
        monkeypatch.setattr(liealg, "_jacobi_failure", lambda d, table: (0, 1, 2))
    result = selftest.run_criterion(1, ["A2"])
    assert not result.passed
    assert result.detail == "the generator check disagrees in A2"


def test_criterion_02_kostant_oracle():
    # DP agrees with brute-force enumeration up to height 8
    _run(2)


def test_criterion_03_verma_dimensions():
    # weight-space basis sizes equal Kostant numbers up to height 6
    _run(3)


def test_criterion_04_gauss_norms():
    # 1000 random pairs per type, six (p, s) combinations, zero violations
    result = _run(4)
    assert "3000 pairs" in result.detail


def test_criterion_05_central_characters():
    # chi constant on dot orbits; psi invariant under the plain action
    _run(5)


def test_criterion_06_simplicity_criterion():
    # antidominance verdicts match depth-6 Shapovalov nondegeneracy on the
    # integral grid plus 20 non-integral weights per type
    _run(6)


def test_criterion_07_sl2_block():
    _run(7)


def test_criterion_08_a2_regular_block():
    _run(8)


def test_criterion_09_weyl_dimension():
    _run(9)


def test_criterion_10_maximal_vectors():
    _run(10)


def test_selftest_aggregate_runs_everything():
    results = selftest.run_selftest(seed=selftest.DEFAULT_SEED)
    assert len(results) == 10
    assert all(r.passed for r in results)
    assert [r.number for r in results] == list(range(1, 11))
