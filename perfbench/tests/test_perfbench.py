"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/tests -q

They check that every metric prints with its name and unit, that the
speed probes stay out of the times they scale, that the same seed gives
identical counts, that every oracle flags a deliberately
corrupted answer, and that the command refuses to run without the
library source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracing import METRICS  # noqa: E402
from workloads import WORKLOADS, Norms, ScanWarm, run_block  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def command(*args, cwd=ROOT):
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def tiny(workload, trace=0, fault=None, seed=3):
    return run.run(workload, seed, 0, trace, size="tiny", fault=fault)


# -- the printed result ------------------------------------------------------

@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_prints_with_name_and_unit(workload, trace):
    proc = command("--workload", workload, "--seed", "5", "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        assert not isinstance(printed["value"], bool)
        if not trace:
            assert printed["value"] > 0, m["name"]


def test_benchmark_json_lists_the_tracer_metrics():
    assert {m["name"] for m in SPEC["per_layer"]} == set(METRICS)
    assert [m["unit"] for m in SPEC["per_layer"]] == [METRICS[m["name"]][0]
                                                      for m in SPEC["per_layer"]]
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(8) is None
    assert run.tail_percentile(400) == 95.0
    assert run.tail_percentile(4000) == 99.0
    assert run.tail_percentile(10000) == 99.9


# -- timing at the reference speed --------------------------------------------

def test_speed_probes_are_left_out_of_its_clock():
    before = signal.getsignal(signal.SIGPROF)
    work = [0]
    with speed.Speed() as sp:
        start, cpu = sp.clock(), time.thread_time()
        while time.thread_time() - cpu < 0.3:
            work[0] += 1
        end = sp.clock()
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(sp.rates) >= 2 * speed.NEAREST
    assert sp.spent > 0
    assert end - start == pytest.approx(0.3 - sp.spent, abs=0.02)
    assert sp.scaled(start, end) == pytest.approx((end - start) * sp.factor(start, end))


def test_speed_factor_uses_the_probes_around_an_interval(monkeypatch):
    monkeypatch.setattr(speed, "NEAREST", 3)
    sp = speed.Speed()
    sp.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    sp.rates = [1.0] * 5 + [2.0] * 5
    ref = speed.REFERENCE_S
    # inside [8.5, 8.6]: no probe, so the three on either side, 6 to 9
    assert sp.factor(8.5, 8.6) == pytest.approx(2.0 * ref)
    # inside [4.5, 4.6]: 2 to 7, three at each rate
    assert sp.factor(4.5, 4.6) == pytest.approx(1.5 * ref)
    assert sp.factor(-1.0, 20.0) == pytest.approx(1.5 * ref)


# -- repeatable counts -------------------------------------------------------

@pytest.mark.parametrize("workload", ("blocks_cold", "scan_warm"))
def test_same_seed_gives_identical_counts(workload):
    counts = []
    for _ in range(2):
        result, detail = tiny(workload, trace=1)
        assert result["correct"], detail["problems"]
        m = result["metrics"]
        counts.append((m["pbw.normal_order_word.calls"]["value"],
                       m["exactla.rank.cells"]["value"],
                       m["pbw.multiply_monomials.calls"]["value"]))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


def test_same_seed_gives_identical_inputs():
    for name, cls in WORKLOADS.items():
        assert cls(7, "full", REFERENCE).inputs == cls(7, "full", REFERENCE).inputs
        assert cls(7, "full", REFERENCE).inputs != cls(8, "full", REFERENCE).inputs


def test_traced_run_reports_overhead_and_accounts_for_wall():
    result, detail = tiny("blocks_cold", trace=1)
    assert detail["coldness_guard"] == "passed"
    assert detail["tracing_overhead_s"] == pytest.approx(
        detail["traced_wall_s"] - detail["untraced_wall_s"])
    accounted = sum(detail["round_self_s_by_layer"].values()) + detail["round_harness_s"]
    assert accounted == pytest.approx(detail["traced_round_s"], rel=1e-9)


# -- corrupted answers, end to end ---------------------------------------------

def _flip_d(lib):
    original = lib.category.block_report

    def corrupted(alg, lam, depth=None):
        report = original(alg, lam, depth)
        d = [list(row) for row in report.decomposition]
        d[0][-1] = 1 - d[0][-1]
        return dataclasses.replace(report, decomposition=tuple(map(tuple, d)))

    lib.category.block_report = corrupted


def _drop_a_rank(lib):
    original = lib.exactla.rank

    def corrupted(matrix):
        r = original(matrix)
        return r - 1 if len(matrix) == 1 and r == 1 else r

    lib.exactla.rank = corrupted


def _shift_norms(lib):
    original = lib.gaussnorm.log_norm

    def corrupted(u, np):
        n = original(u, np)
        return n.shift(1) if np.p == 5 and len(u.terms) == 2 else n

    lib.gaussnorm.log_norm = corrupted


@pytest.mark.parametrize("workload, fault", [
    ("blocks_cold", _flip_d),
    ("scan_warm", _drop_a_rank),
    ("norms", _shift_norms),
])
@pytest.mark.parametrize("trace", (0, 1))
def test_corrupted_answer_gives_errors(workload, fault, trace):
    result, detail = tiny(workload, trace=trace, fault=fault)
    assert not result["correct"]
    assert result["failed"] > 0 and detail["error_rate"] > 0
    if not trace:
        assert result["metrics"]["ok_rate"]["value"] < 1


def test_coldness_guard_catches_a_leaked_cache():
    def leak(lib):
        # keep the root-system cache across calls and warm it for every block
        lib.rootdata.cached_root_system.cache_clear = lambda: None
        for _, label, member in WORKLOADS["blocks_cold"](3, "tiny", REFERENCE).inputs:
            run_block(lib, label, member)

    result, detail = tiny("blocks_cold", trace=1, fault=leak)
    assert detail["coldness_guard"] == "failed"
    assert not result["correct"]


# -- each oracle on its own ------------------------------------------------

def _block(lib, key):
    label = key.split(":")[0]
    member = REFERENCE["blocks"][key]["class"][0]
    code, text, _ = run_block(lib, label, member)
    assert code == 0
    return label, member, json.loads(text)


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def test_block_oracles_each_catch_a_corruption(lib):
    key = "A2:0,0"
    label, member, report = _block(lib, key)
    ref = REFERENCE["blocks"][key]
    assert oracles.block_problems(lib, key, label, member, report, ref) == []

    def problems(changed):
        own = dict(ref, digest=oracles.block_digest(changed))
        return oracles.block_problems(lib, key, label, member, changed, own)

    changed = dict(report, depth=report["depth"] + 1)
    assert oracles.block_problems(lib, key, label, member, changed, ref) == [
        "block differs from the reference digest"]
    c = [row[:] for row in report["C"]]
    c[1][2] += 1
    assert problems(dict(report, C=c)) == ["C is not D^T D"]
    d = [row[:] for row in report["D"]]
    d[0][-1] = 1 - d[0][-1]
    dtd = [[sum(d[k][i] * d[k][j] for k in range(len(d))) for j in range(len(d))]
           for i in range(len(d))]
    assert problems(dict(report, D=d, C=dtd)) == [
        "1 entries of D differ from the Bruhat order"]
    changed = dict(report, representative=[5, 5])
    assert problems(changed) == ["representative is not the weight passed"]


def test_scan_oracles_each_catch_a_corruption(lib):
    workload = ScanWarm(3, "tiny", REFERENCE)
    workload.setup(lib)
    outputs = [op() for op in workload.ops()]
    assert workload.check(outputs, lib) == [None] * len(outputs)
    i = next(k for k, out in enumerate(outputs) if not out[0][0])
    verdict, ranks, casimir_value, orbit = outputs[i][0]
    nu = next(r[0] for r in ranks if r[1] == r[2])
    corruptions = [
        (not verdict, ranks, casimir_value, orbit),
        (verdict, tuple((n, r - 1 if n == nu else r, d) for n, r, d in ranks),
         casimir_value, orbit),
        (verdict, ranks[1:], casimir_value, orbit),
        (verdict, ranks, casimir_value + 1, orbit),
        (verdict, ranks, casimir_value, orbit[1:]),
    ]
    for bad in corruptions:
        changed = outputs[:i] + [(bad,)] + outputs[i + 1:]
        flagged = workload.check(changed, lib)
        assert flagged[i] is not None
        assert flagged[:i] + flagged[i + 1:] == [None] * (len(outputs) - 1)


def test_norm_oracles_each_catch_a_corruption(lib):
    workload = Norms(0, "tiny", REFERENCE)
    assert workload.expected_digest is not None
    workload.setup(lib)
    outputs = [op() for op in workload.ops()]
    assert workload.check(outputs, lib) == [None] * len(outputs)

    def flagged(i, product=None, row=None, digest=None):
        changed = list(outputs)
        terms, rows = changed[i]
        if row is not None:
            rows = (row,) + rows[1:]
        changed[i] = (product if product is not None else terms, rows)
        w = Norms(0, "tiny", {"norms_digest": {"tiny:0": digest or workload.expected_digest}})
        return w.check(changed, lib)

    nu, nv, nw, sub, ultra, scaling = outputs[0][1][0]
    for bad in ((nu, nv, nw, False, ultra, scaling),
                (nu, nv, nw, sub, False, scaling),
                (nu, nv, nw, sub, ultra, False)):
        assert flagged(0, row=bad)[0].startswith("identity fails")
    # a wrong value with the digest it produces: only the exact recomputation sees it
    wrong = (nu + 1, nv, nw, sub, ultra, scaling)
    changed_rows = [rows for _, rows in outputs]
    changed_rows[0] = (wrong,) + changed_rows[0][1:]
    problems = flagged(0, row=wrong, digest=oracles.norm_digest(changed_rows))
    assert "differ from the oracle" in problems[0]
    assert problems[1:] == [None] * (len(outputs) - 1)
    # a product with its top-degree term changed
    terms = dict(outputs[0][0])
    top = max(terms, key=sum)
    terms[top] += 1
    assert "symbol" in flagged(0, product=terms)[0]
    # the digest alone
    assert all(p and "digest" in p for p in flagged(0, digest="0" * 64))


def test_valuation_and_exact_norm():
    assert oracles.valuation(Fraction(40, 3), 2) == 3
    assert oracles.valuation(Fraction(3, 250), 5) == -3
    terms = {(1, 0): Fraction(4), (0, 2): Fraction(1, 5)}
    assert oracles.log_norm_exact(terms, 2, Fraction(1)) == 2  # from (0, 2)
    assert oracles.log_norm_exact(terms, 2, Fraction(1, 4)) == Fraction(1, 2)
    assert oracles.log_norm_exact(terms, 5, Fraction(1, 2)) == 2
    assert oracles.log_norm_exact({}, 5, Fraction(1)) is None


# -- where it cannot run -----------------------------------------------------

def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = command("--workload", "norms", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
