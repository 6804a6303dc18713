"""Fault table: each injected fault makes `verify` fail exactly the checks named in its row.

Faults are injected from the test side by monkeypatching, so the package
carries no fault switch.  Each row runs `verify` on OU1D at the size of
`verify_config`, where the unfaulted run passes every check
(`test_cli.py::test_verify_ou_passes_and_reports`).
"""
from __future__ import annotations

import dataclasses
import re

import pytest

from divflow import cli, engine
from divflow.cli import EXIT_CHECK_FAILED, main

from test_cli import verify_config


def negated_control(monkeypatch):
    """The control C(., 0)/t0 with the wrong sign, on the single-path and the batch route."""
    build_control, flow_summary = cli.build_control, cli.flow_summary

    def negated_build(*args, **kwargs):
        control = build_control(*args, **kwargs)
        return dataclasses.replace(control, values=-control.values, boundary=-control.boundary)

    def negated_flow(*args, **kwargs):
        summary = flow_summary(*args, **kwargs)
        return dataclasses.replace(summary, ito=-summary.ito)

    monkeypatch.setattr(cli, "build_control", negated_build)
    monkeypatch.setattr(cli, "flow_summary", negated_flow)


def halved_drift(monkeypatch):
    """Every path stepped with half the drift; the operator and the norms keep the true one."""
    total_drift = engine.total_drift
    monkeypatch.setattr(engine, "total_drift", lambda model, x: 0.5 * total_drift(model, x))


# fault: (injection, the checks that must fail and no others)
FAULTS = {
    "negated_control": (negated_control, {"control_discrepancy", "ibp_identity"}),
    "halved_drift": (halved_drift, {"stationarity", "decay"}),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_exactly_its_checks(fault, tmp_path, monkeypatch, capsys):
    inject, expected = FAULTS[fault]
    inject(monkeypatch)
    code = main(["verify", "--config", str(verify_config(tmp_path))])
    out, err = capsys.readouterr()
    failed = re.findall(r"^\[FAIL\] (\w+):", out, re.M)
    assert set(failed) == expected
    assert code == EXIT_CHECK_FAILED
    assert err == "verification failed: " + ", ".join(failed) + "\n"
