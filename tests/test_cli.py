"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from caputo_lk import cli
from caputo_lk.cli import main
from caputo_lk.verify import CheckResult


def test_order_subcommand(capsys):
    code = main(
        [
            "order",
            "--scheme",
            "l2",
            "--alpha",
            "0.5",
            "--m",
            "2",
            "--beta",
            "0.5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "measured_R=2.00" in out
    assert "theoretical=2.0000" in out


def test_order_lk_requires_k(capsys):
    code = main(
        ["order", "--scheme", "lk", "--alpha", "0.5", "--m", "2", "--beta", "0.5"]
    )
    assert code == 2
    assert "needs --k" in capsys.readouterr().err


def test_order_rejects_bad_alpha(capsys):
    code = main(
        ["order", "--scheme", "l1", "--alpha", "1.5", "--m", "1", "--beta", "0.5"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_order_degenerate_input(capsys):
    # |t - 0.5| is reproduced exactly by the linear scheme
    code = main(
        ["order", "--scheme", "l1", "--alpha", "0.5", "--m", "0", "--beta", "1.0"]
    )
    assert code == 1
    assert "round-off floor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--scheme", "l2", "--alpha", "0.5", "--m", "1", "--beta", "0.5"]
        + ["--tau-exp", "1024"],
        ["first-node", "--scheme", "l2", "--alpha", "0.5", "--beta", "0.5"]
        + ["--tau-exp", "1020"],
    ],
    ids=["order", "first-node"],
)
def test_subnormal_step_is_a_usage_error(capsys, argv):
    """A step whose reciprocal overflows once ended in an OverflowError
    traceback with exit code 1, the code of a failed measurement."""
    assert main(argv) == 2
    assert "1/tau overflows" in capsys.readouterr().err


def test_first_node_subcommand(capsys):
    code = main(["first-node", "--scheme", "l12", "--alpha", "0.7", "--beta", "0.8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "error=1.570" in out
    assert "expected=1.3000" in out


def test_order_table_to_file(tmp_path, capsys):
    dest = tmp_path / "t4.csv"
    code = main(["order-table", "--table", "4", "--format", "csv", "--out", str(dest)])
    assert code == 0
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("scheme,alpha,")
    assert len(lines) == 28


def test_order_table_markdown_stdout(capsys):
    code = main(["order-table", "--table", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("## interior convergence orders, L1-2 scheme")
    assert "| 0.7 |" in out


def test_order_table_rejects_unknown_id():
    with pytest.raises(SystemExit) as info:
        main(["order-table", "--table", "9"])
    assert info.value.code == 2


def _stub_verification(monkeypatch, results):
    # the registry itself runs in tests/test_verify.py and the acceptance
    # tests; here only the CLI's reporting is under test
    monkeypatch.setattr(cli, "run_verification", lambda: results)


def test_verify_subcommand(monkeypatch, capsys):
    _stub_verification(
        monkeypatch, [CheckResult("first", True, "a"), CheckResult("second", True, "b")]
    )
    code = main(["verify"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok   first: a",
        "ok   second: b",
        "2/2 checks passed",
    ]


def test_verify_reports_failures(monkeypatch, capsys):
    _stub_verification(
        monkeypatch, [CheckResult("first", True, "a"), CheckResult("second", False, "b")]
    )
    code = main(["verify"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "ok   first: a",
        "FAIL second: b",
        "1/2 checks passed",
    ]


def test_usage_error_without_subcommand():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
