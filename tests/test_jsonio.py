import json
import random
from fractions import Fraction as F

import pytest

from bggkit import jsonio
from bggkit.errors import UsageError
from bggkit.liealg import UEAElement
from bggkit.rootdata import Weight


def test_frac_round_trip():
    for value in (0, 5, -3, F(1, 2), F(-7, 3), F(22, 11)):
        encoded = jsonio.frac_to_json(value)
        assert jsonio.frac_from_json(encoded) == F(value)
    assert jsonio.frac_to_json(F(4, 2)) == 2  # integers stay bare
    assert jsonio.frac_to_json(F(1, 2)) == "1/2"
    with pytest.raises(UsageError):
        jsonio.frac_from_json("x/y")
    with pytest.raises(UsageError):
        jsonio.frac_from_json(1.5)
    with pytest.raises(UsageError):
        jsonio.frac_from_json(True)


def test_weight_round_trip():
    w = Weight([1, F(-3, 2)])
    encoded = jsonio.weight_to_json(w)
    assert encoded == [1, "-3/2"]
    assert Weight(map(jsonio.frac_from_json, encoded)) == w
    assert jsonio.parse_weight("1,-3/2") == w
    with pytest.raises(UsageError):
        jsonio.parse_weight("1,zzz")


def test_element_round_trip(a2):
    rng = random.Random(41)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(a2.d))
            terms[exps] = F(rng.randint(-9, 9), rng.randint(1, 4))
        u = UEAElement(a2, terms)
        encoded = jsonio.element_to_json(u)
        # schema: canonical order, documented field names
        assert all(set(row) == {"exps", "coef"} for row in encoded)
        assert all(len(row["exps"]) == a2.d for row in encoded)
        decoded = jsonio.element_from_json(a2, encoded)
        assert decoded == u
        # reprint idempotence
        assert jsonio.element_to_json(decoded) == encoded
        json.dumps(encoded)  # must be plain JSON types


def test_element_parse_errors(a1):
    with pytest.raises(UsageError):
        jsonio.element_from_json(a1, {"exps": [0, 0, 0], "coef": 1})
    with pytest.raises(UsageError):
        jsonio.element_from_json(a1, [{"exps": [0, 0], "coef": 1}])
    with pytest.raises(UsageError):
        jsonio.element_from_json(a1, [{"exps": [0, -1, 0], "coef": 1}])
    with pytest.raises(UsageError):
        jsonio.element_from_json(a1, [{"coef": 1}])


def test_element_round_trip_with_a_bool_exponent(a1):
    # a bool exponent equals its int, so the element is y(1); it used to be
    # written as [true, 0, 0], which the reader refuses
    u = UEAElement(a1, {(True, 0, 0): 2, (0, False, 1): 1})
    assert u == 2 * a1.y(0) + a1.x(0)
    rows = json.loads(json.dumps(jsonio.element_to_json(u)))
    assert sorted(map(tuple, (row["exps"] for row in rows))) == [(0, 0, 1), (1, 0, 0)]
    assert all(type(e) is int for row in jsonio.element_to_json(u) for e in row["exps"])
    assert jsonio.element_from_json(a1, rows) == u
