"""The digit ledger (mutation/ledger.py) is deterministic."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "mutation" / "ledger.py"


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def first(ledger):
    return ledger.ledger(20)


def test_ledger_prints_the_same_text_twice(ledger, first, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert ledger.ledger(20) == first
    # the failing fuzz run wrote its replay files elsewhere, and the ledger
    # leaves the working directory where it was
    assert os.getcwd() == str(tmp_path)
    assert list(tmp_path.iterdir()) == []
    assert not list(ROOT.glob("detcs-replay-*"))
    # 20 trials of each of the four ensembles, 4 README pairs, 12 tall
    # pairs, 8 defect pairs and 6 --check records, each source id once;
    # then the failing fuzz run's stdout lines and its exit code
    lines = first.splitlines()
    prefix = "fuzzfail:stdout "
    stdout = [ln.removeprefix(prefix) for ln in lines if ln.startswith(prefix)]
    sources = [line.split()[0] for line in lines if not line.startswith("fuzzfail:")]
    assert len(sources) == len(set(sources)) == 4 * 20 + 4 + 12 + 8 + 6
    assert lines[len(sources) :] == [prefix + ln for ln in stdout] + ["fuzzfail:exit 3"]
    # a header, one line per ensemble and the total; then a VIOLATION and a
    # replay line per violation, how many depending on roundoff
    violations = sum(ln.startswith("VIOLATION ") for ln in stdout)
    assert violations > 0
    assert stdout[5] == f"total: {120 - violations}/120 passed"
    assert len(stdout) == 6 + 2 * violations


def test_check_lines_are_records(first):
    # after its prefix, each of the six check: lines is a JSON record
    checks = [ln.split(" ", 1) for ln in first.splitlines() if ln.startswith("check:")]
    assert len(checks) == 6
    for _, record in checks:
        assert isinstance(json.loads(record), dict)


def test_a_failing_check_stops_the_ledger(ledger, tmp_path, monkeypatch):
    # a verify --check that exits nonzero (an OracleError exits 3) is a
    # fault, never a ledger line
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ledger.cli, "run", lambda argv: 3)
    with pytest.raises(SystemExit, match="check:strict-12: verify --check exited 3"):
        ledger.cli_lines()
    assert os.getcwd() == str(tmp_path)


def test_check_line_is_the_console_record(ledger, first, tmp_path, monkeypatch):
    # the ledger's check:strict-12 line, after its prefix, is the stdout of
    # the console command on the same files, under -W error
    monkeypatch.chdir(tmp_path)
    name, options = next(ledger.check_pairs())
    assert name == "strict-12"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "detcs", "verify", *options, "--check", "--json"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert f"check:strict-12 {proc.stdout}" in first.splitlines(keepends=True)


def test_only_a_package_error_is_a_ledger_line(ledger, monkeypatch):
    # a DetcsError is the instance's verdict; anything else, such as a numpy
    # ValueError inside a kernel or a warning under -W error, stops the ledger
    def fault(*args):
        raise ValueError("inside a kernel")

    a = np.eye(3, 2, dtype=complex)
    assert ledger.entry("plain", a, a, None).endswith(" ok")
    monkeypatch.setattr(ledger, "verify_inequality", fault)
    with pytest.raises(ValueError, match="inside a kernel"):
        ledger.entry("fault", a, a, None)
