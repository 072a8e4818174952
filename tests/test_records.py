"""The contract of bggkit's six record classes.

``SimplicityReport``, ``DecompositionMatrix`` and ``BlockReport``
(category), ``NormParam`` (gaussnorm), ``CartanMatrixInput`` (rootdata)
and ``CriterionResult`` (selftest) compare and hash by their fields,
print as ``Name(field=value, ...)``, refuse assignment and deletion (all
but ``CriterionResult``) and round-trip through pickle and deepcopy.  The
reprs and the embedded pickle below were recorded when the six classes
were ``@dataclass`` classes, so they pin that behaviour.
"""

import base64
import copy
import dataclasses
import os
import pickle
import pprint
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import bggkit
from bggkit.category import (BlockReport, DecompositionMatrix, SimplicityReport,
                             block_report, decomposition_matrix, verma_is_simple)
from bggkit.errors import DomainError
from bggkit.gaussnorm import NormParam
from bggkit.rootdata import CartanMatrixInput, Weight
from bggkit.selftest import CriterionResult


def _records(a1):
    """One instance of each class (two of the validating ones), in the
    order of the embedded pickle."""
    return [
        SimplicityReport(True, 2, (((1,), 1, 1), ((2,), 1, 1))),
        verma_is_simple(a1, Weight([1]), 2),
        decomposition_matrix(a1, Weight([0])),
        block_report(a1, Weight([0])),
        NormParam(2, F(1, 2)),
        CartanMatrixInput.from_label("A2"),
        CartanMatrixInput([[2, -1], [-1, 2]]),
        CriterionResult(4, "gauss-norms", True, "ok", skipped=False),
    ]


REPRS = [
    "SimplicityReport(verdict=True, depth=2, ranks=(((1,), 1, 1), ((2,), 1, 1)))",
    "SimplicityReport(verdict=False, depth=2, ranks=(((1,), 1, 1), ((2,), 0, 1)))",
    "DecompositionMatrix(class_weights=(Weight(0), Weight(-2)), "
    "entries=((1, 1), (0, 1)), depth=1)",
    "BlockReport(representative=Weight(0), class_weights=(Weight(0), Weight(-2)), "
    "depth=1, decomposition=((1, 1), (0, 1)), projective_filtration=((1, 0), (1, 1)), "
    "cartan=((1, 1), (1, 2)), simple_weight_tables=(((0,), (1, 1)), ((1,), (0, 1))), "
    "finite_dimensional=(True, False), weyl_dimension_checks=((0, 1, 1),))",
    "NormParam(p=2, s=Fraction(1, 2))",
    "CartanMatrixInput(entries=((2, -1), (-1, 2)), label='A2')",
    "CartanMatrixInput(entries=((2, -1), (-1, 2)), label=None)",
    "CriterionResult(number=4, name='gauss-norms', passed=True, detail='ok', "
    "skipped=False)",
]

# pickle.dumps(_records(a1), protocol=4), made by the @dataclass classes
DATACLASS_PICKLE = base64.b64decode("""
gASVrAMAAAAAAABdlCiMD2JnZ2tpdC5jYXRlZ29yeZSMEFNpbXBsaWNpdHlSZXBvcnSUk5Qp
gZR9lCiMB3ZlcmRpY3SUiIwFZGVwdGiUSwKMBXJhbmtzlEsBhZRLAUsBh5RLAoWUSwFLAYeU
hpR1YmgDKYGUfZQoaAaJaAdLAmgISwGFlEsBSwGHlEsChZRLAEsBh5SGlHViaAGME0RlY29t
cG9zaXRpb25NYXRyaXiUk5QpgZR9lCiMDWNsYXNzX3dlaWdodHOUjA9iZ2draXQucm9vdGRh
dGGUjAZXZWlnaHSUk5SMCWZyYWN0aW9uc5SMCEZyYWN0aW9ulJOUSwBLAYaUUpSFlIWUUpRo
HGgfSv7///9LAYaUUpSFlIWUUpSGlIwHZW50cmllc5RLAUsBhpRLAEsBhpSGlGgHSwGMBWRp
ZmZzlEsAhZRLAYWUhpROSwCFlIaUhpSMBXdhbGxzlEsBhZSFlCmGlHViaAGMC0Jsb2NrUmVw
b3J0lJOUKYGUfZQojA5yZXByZXNlbnRhdGl2ZZRoHGgfSwBLAYaUUpSFlIWUUpRoGWgcaB9L
AEsBhpRSlIWUhZRSlGgcaB9K/v///0sBhpRSlIWUhZRSlIaUaAdLAYwNZGVjb21wb3NpdGlv
bpRLAUsBhpRLAEsBhpSGlIwVcHJvamVjdGl2ZV9maWx0cmF0aW9ulEsBSwCGlEsBSwGGlIaU
jAZjYXJ0YW6USwFLAYaUSwFLAoaUhpSMFHNpbXBsZV93ZWlnaHRfdGFibGVzlEsAhZRLAUsB
hpSGlEsBhZRLAEsBhpSGlIaUjBJmaW5pdGVfZGltZW5zaW9uYWyUiImGlIwVd2V5bF9kaW1l
bnNpb25fY2hlY2tzlEsASwFLAYeUhZR1YowQYmdna2l0LmdhdXNzbm9ybZSMCU5vcm1QYXJh
bZSTlCmBlH2UKIwBcJRLAowBc5RoH0sBSwKGlFKUdWJoGowRQ2FydGFuTWF0cml4SW5wdXSU
k5QpgZR9lChoK0sCSv////+GlEr/////SwKGlIaUjAVsYWJlbJSMAkEylHViaHIpgZR9lCho
K0sCSv////+GlEr/////SwKGlIaUaHhOdWKMD2JnZ2tpdC5zZWxmdGVzdJSMD0NyaXRlcmlv
blJlc3VsdJSTlCmBlH2UKIwGbnVtYmVylEsEjARuYW1llIwLZ2F1c3Mtbm9ybXOUjAZwYXNz
ZWSUiIwGZGV0YWlslIwCb2uUjAdza2lwcGVklIl1YmUu
""")

FIELDS = {
    SimplicityReport: ("verdict", "depth", "ranks"),
    DecompositionMatrix: ("class_weights", "entries", "depth", "diffs", "walls"),
    BlockReport: ("representative", "class_weights", "depth", "decomposition",
                  "projective_filtration", "cartan", "simple_weight_tables",
                  "finite_dimensional", "weyl_dimension_checks"),
    NormParam: ("p", "s"),
    CartanMatrixInput: ("entries", "label"),
    CriterionResult: ("number", "name", "passed", "detail", "skipped"),
}
HIDDEN = {"diffs", "walls"}


def _shown(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)]
                 if name not in HIDDEN)


def test_reprs_are_those_of_the_dataclasses(a1):
    assert [repr(r) for r in _records(a1)] == REPRS


def test_equal_records_compare_and_hash_by_their_shown_fields(a1):
    for first, second in zip(_records(a1), _records(a1)):
        assert first is not second and first == second
        assert not first != second
        assert first != _shown(first) and first != object()
        assert first.__eq__(_shown(first)) is NotImplemented
        if type(first) is not CriterionResult:
            assert hash(first) == hash(second) == hash(_shown(first))


def test_unequal_records_differ(a1):
    records = _records(a1)
    assert len({*records[:2], *records[4:7]}) == 5  # the two Cartan inputs differ
    assert records[0] != records[1]
    assert records[5] != records[6] and records[5].entries == records[6].entries
    assert NormParam(2, F(1, 2)) != NormParam(3, F(1, 2)) != NormParam(3, 1)
    assert (CriterionResult(1, "a", True, "x")
            != CriterionResult(1, "a", True, "x", skipped=True))
    assert records[2] != records[3]  # another class, though alike in part


def test_hidden_fields_take_no_part_in_equality_hash_or_repr(a1):
    dec = decomposition_matrix(a1, Weight([0]))
    bare = DecompositionMatrix(dec.class_weights, dec.entries, dec.depth)
    assert bare.diffs == () and bare.walls == ()
    assert dec.diffs == (((0,), (1,)), (None, (0,))) and dec.walls == (((1,),), ())
    assert bare == dec and hash(bare) == hash(dec) and repr(bare) == repr(dec)
    other = DecompositionMatrix(dec.class_weights, ((1, 0), (0, 1)), dec.depth,
                                dec.diffs, dec.walls)
    assert other != dec


def test_construction_by_position_or_keyword():
    by_position = CriterionResult(3, "verma", False, "no", True)
    by_keyword = CriterionResult(detail="no", passed=False, name="verma",
                                 number=3, skipped=True)
    assert by_position == by_keyword and by_keyword.skipped is True
    assert CriterionResult(3, "verma", False, "no").skipped is False
    dec = DecompositionMatrix(entries=((1,),), class_weights=(Weight([-1]),), depth=0)
    assert dec.size == 1 and dec.diffs == ()
    assert NormParam(s=1, p=5) == NormParam(5, F(1))
    assert CartanMatrixInput(entries=((2,),), label="A1").label == "A1"
    with pytest.raises(TypeError):
        CriterionResult(3, "verma", False)
    with pytest.raises(TypeError):
        CriterionResult(3, "verma", False, "no", True, "extra")
    with pytest.raises(TypeError):
        CriterionResult(3, "verma", False, "no", colour="red")
    with pytest.raises(TypeError):
        CriterionResult(3, "verma", False, "no", number=4)
    with pytest.raises(TypeError):
        SimplicityReport(True, 2)


def test_validating_records_check_and_normalize_their_fields():
    np = NormParam(2, 1)
    assert type(np.s) is F and np == NormParam(2, F(1))
    with pytest.raises(DomainError):
        NormParam(4, 1)
    with pytest.raises(DomainError):
        NormParam(2, 0)
    cartan = CartanMatrixInput([[2, -1], [-1, 2]])
    assert cartan.entries == ((2, -1), (-1, 2)) and cartan.rank == 2
    with pytest.raises(DomainError):
        CartanMatrixInput(((2, 1), (1, 2)))


def test_frozen_records_refuse_assignment_and_deletion(a1):
    for record in _records(a1)[:-1]:
        for name in (*FIELDS[type(record)], "other"):
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"cannot assign to field '{name}'"):
                setattr(record, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"cannot delete field '{name}'"):
                delattr(record, name)
    assert _records(a1)[:-1] == _records(a1)[:-1]


def test_criterion_results_stay_mutable_and_unhashable():
    result = CriterionResult(1, "a", True, "x")
    result.passed = False
    result.note = "kept"
    del result.note
    assert result == CriterionResult(1, "a", False, "x")
    with pytest.raises(TypeError, match="unhashable"):
        hash(result)


@pytest.mark.parametrize("roundtrip", [lambda r: pickle.loads(pickle.dumps(r)),
                                       copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_records_round_trip_with_their_hidden_fields(a1, roundtrip):
    for record in _records(a1):
        again = roundtrip(record)
        assert type(again) is type(record) and again == record
        assert vars(again) == vars(record)


def test_a_pickle_of_the_dataclasses_still_loads(a1):
    loaded = pickle.loads(DATACLASS_PICKLE)
    assert loaded == _records(a1)
    assert [repr(r) for r in loaded] == REPRS
    assert [vars(r) for r in loaded] == [vars(r) for r in _records(a1)]
    assert loaded[0] == SimplicityReport(True, 2, loaded[0].ranks)
    with pytest.raises(dataclasses.FrozenInstanceError):
        loaded[4].p = 3


def test_dataclasses_helpers_take_records(a1):
    dec = decomposition_matrix(a1, Weight([0]))
    swapped = dataclasses.replace(dec, entries=((1, 0), (0, 1)))
    assert swapped.entries == ((1, 0), (0, 1)) and swapped.walls == dec.walls
    assert dataclasses.replace(NormParam(2, 1), p=3) == NormParam(3, 1)
    for record in _records(a1):
        assert dataclasses.is_dataclass(record)
        assert tuple(f.name for f in dataclasses.fields(record)) == FIELDS[type(record)]
    assert dataclasses.asdict(CriterionResult(1, "a", True, "x")) == {
        "number": 1, "name": "a", "passed": True, "detail": "x", "skipped": False}



def test_pprint_prints_a_record_as_its_repr(a1):
    """pprint reads the dataclass parameters of what is_dataclass accepts;
    it gave a dataclass one line per field, and gives a record its repr."""
    for record in _records(a1):
        assert pprint.pformat(record, width=20) == repr(record)


def test_a_cold_import_of_the_cli_loads_neither_dataclasses_nor_inspect():
    """Writing the records' methods with exec was most of a cold import;
    ``inspect`` came in with ``dataclasses``."""
    src = str(Path(bggkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import bggkit.cli, sys; "
            "print(bggkit.__file__); print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    assert out == [bggkit.__file__, ""]


def test_a_cold_import_of_the_cli_loads_no_selftest():
    """Only ``bggkit selftest`` imports the acceptance suite."""
    src = str(Path(bggkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import bggkit.cli, sys; print('bggkit.selftest' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "False\n"
