"""Every block of the benchmark's ``blocks_cold`` workload, checked here.

``perfbench/reference.json`` stores, for each block, its linkage class
and the sha256 of its ``block --json`` report without the
``representative`` field, as compact sorted JSON; every member of the
class gives that same report.  The file is read with ``json`` only, so
nothing under perfbench/ is imported or written.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from bggkit import cli, exactla
from bggkit.category import decomposition_matrix
from bggkit.liealg import build_chevalley
from bggkit.pbw import StraightenKernel
from bggkit.rootdata import Weight, cached_root_system

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def _members():
    blocks = json.loads(REFERENCE.read_text())["blocks"]
    return [pytest.param(key.split(":")[0], member, entry["digest"],
                         id=f"{key}@{member}")
            for key, entry in blocks.items() for member in entry["class"]]


@pytest.mark.parametrize("label, member, digest", _members())
def test_block_json_matches_reference_digest(capsys, label, member, digest):
    assert cli.main(["block", "--type", label, f"--weight={member}", "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    passed = [Fraction(x) for x in member.split(",")]
    assert [Fraction(x) for x in report.pop("representative")] == passed
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_block_work_over_the_reference_members(capsys, monkeypatch):
    """The block path's kernel and elimination work, pinned.

    Every class member of the reference blocks runs through ``block
    --json`` from a cleared root-system cache, as a new process would,
    and the calls of ``exactla.row_basis`` and of the PBW kernel's
    ``multiply_monomials`` are counted: 2,494 and 4,404 over the 50
    members.  Each block makes at least one kernel call, so none of them
    is served from a warm algebra.  These numbers change only in a change
    that says why the block path now does more or less work.
    """
    counts = {"row_basis": 0, "kernel": 0}
    row_basis = exactla.row_basis
    multiply = StraightenKernel.multiply_monomials

    def count_row_basis(rows):
        counts["row_basis"] += 1
        return row_basis(rows)

    def count_kernel(kernel, *args):
        counts["kernel"] += 1
        return multiply(kernel, *args)

    monkeypatch.setattr(exactla, "row_basis", count_row_basis)
    monkeypatch.setattr(StraightenKernel, "multiply_monomials", count_kernel)
    per_block = []
    for param in _members():
        label, member, _ = param.values
        cached_root_system.cache_clear()
        before = counts["kernel"]
        assert cli.main(["block", "--type", label, f"--weight={member}", "--json"]) == 0
        per_block.append(counts["kernel"] - before)
    capsys.readouterr()
    assert len(per_block) == 50
    assert counts == {"row_basis": 2494, "kernel": 4404}
    assert min(per_block) >= 1


def test_block_differences_are_differences_of_depths():
    """``DecompositionMatrix.diffs``, read off each member's depth below
    the top of its block, equals mu_k - mu_j through ``gamma_coords`` on
    every reference member and on the one-member block of E7 at -rho."""
    members = [param.values[:2] for param in _members()]
    members.append(("E7", "-1,-1,-1,-1,-1,-1,-1"))
    for label, member in members:
        alg = build_chevalley(cached_root_system(label))
        dec = decomposition_matrix(alg, Weight([Fraction(x) for x in member.split(",")]))
        cls = dec.class_weights
        assert dec.diffs == tuple(tuple(alg.rs.gamma_coords(a - b) for b in cls)
                                  for a in cls)
    assert len(cls) == 1 and dec.diffs == (((0,) * 7,),)
