"""Acceptance gate: every criterion runs exactly, one PASS/FAIL line each."""

import time

import pytest

from qschub.quantum_ring import StructureTable
from qschub.selftest import CRITERIA, check_full_flag_table, check_parabolic_tables


@pytest.mark.parametrize(
    "index,name,check",
    [(i, name, fn) for i, (name, fn) in enumerate(CRITERIA, start=1)],
    ids=[f"criterion-{i}" for i in range(1, len(CRITERIA) + 1)],
)
def test_criterion(index, name, check, capsys):
    start = time.perf_counter()
    ok, detail = check()
    elapsed = time.perf_counter() - start
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"{status} criterion {index}: {name} [{detail}] ({elapsed:.2f}s)")
    assert ok, f"criterion {index} ({name}): {detail}"


@pytest.mark.parametrize("check", [check_full_flag_table, check_parabolic_tables])
def test_table_criteria_run_the_same_checks(check, monkeypatch):
    monkeypatch.setattr(StructureTable, "check_divisor_rows", lambda table: False)
    ok, detail = check()
    assert not ok
    assert detail.endswith("a divisor row disagrees with the rule")
