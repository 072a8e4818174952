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

from bggkit import cli

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
