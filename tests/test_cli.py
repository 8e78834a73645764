"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from caputo_lk import cli, verify
from caputo_lk.cli import main
from caputo_lk.oracle import QuadratureConvergenceError
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


_FIRST_NODE_L2 = ["first-node", "--scheme", "l2", "--alpha", "0.5", "--beta", "0.5"]


@pytest.mark.parametrize(
    "tau_exp, line",
    [
        ("8", "tau=2^-8 error=1.214618e-04 measured_R=1.4983 expected=1.5000"),
        ("20", "tau=2^-20 error=4.646464e-10 measured_R=1.4986 expected=1.5000"),
    ],
)
def test_first_node_fine_steps(capsys, tau_exp, line):
    """At 2^-20 the printed digits carry the rounding of the reference node;
    tests/test_schemes.py::TestColumnPrecision::
    test_first_node_reference_against_60_digits holds them against 60
    digits (exact error 4.643830e-10, R 1.4951)."""
    assert main(_FIRST_NODE_L2 + ["--tau-exp", tau_exp]) == 0
    assert capsys.readouterr().out == f"scheme=L2 alpha=0.5 beta=0.5 {line}\n"


@pytest.mark.parametrize("tau_exp", ["24", "30", "60", "200"])
def test_first_node_round_off_fails_the_measurement(capsys, tau_exp):
    """Round-off once printed rates from 5.19 to -2.51 with exit code 0."""
    assert main(_FIRST_NODE_L2 + ["--tau-exp", tau_exp]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below the round-off floor" in captured.err


def test_order_table_to_file(tmp_path, capsys):
    dest = tmp_path / "t4.csv"
    code = main(["order-table", "--table", "4", "--format", "csv", "--out", str(dest)])
    assert code == 0
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("scheme,alpha,")
    assert len(lines) == 28


def test_order_table_to_unwritable_path(tmp_path, capsys):
    """A missing directory once escaped as a FileNotFoundError traceback."""
    dest = tmp_path / "missing" / "t1.csv"
    assert main(["order-table", "--table", "1", "--format", "csv", "--out", str(dest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(dest) in captured.err


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


@pytest.mark.parametrize(
    "exc",
    [ValueError("alpha must lie in (0, 1)"), QuadratureConvergenceError("did not settle", 0.5)],
    ids=lambda exc: type(exc).__name__,
)
def test_verify_reports_a_raising_check_as_failed(monkeypatch, capsys, exc):
    """A check that raises fails on its own line; the checks after it
    still run and the command exits 1, not with a usage error or a
    traceback."""

    def raising(_):
        raise exc

    checks = {"first": lambda _: (True, "a"), "second": raising, "third": lambda _: (True, "c")}
    monkeypatch.setattr(verify, "_CHECKS", checks)
    code = main(["verify"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "ok   first: a",
        f"FAIL second: raised {type(exc).__name__}: {exc}",
        "ok   third: c",
        "2/3 checks passed",
    ]


def test_usage_error_without_subcommand():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
