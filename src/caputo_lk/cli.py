"""Command-line interface.

Subcommands: ``order-table`` writes one built-in convergence study, as
``harness.render`` gives it, to stdout or ``--out``; ``order`` measures
a single interior convergence order, ``first-node`` the error and order
at the first grid node, and ``verify`` runs the self-check suite.  A
scheme is named by its label without dashes, in lower case: l1, l2,
l12, l123, ..., l123456.  Exit codes: 0 on success, 1 when a
verification or order measurement fails, 2 on usage errors and on an
output path that cannot be written.
"""

from __future__ import annotations

import argparse
import sys

from .harness import DegenerateDifferenceError, order_first_node, order_interior, render
from .harness import reproduce_table
from .holder import HolderTestFunction, _check_count
from .interp import _ALL_SCHEMES
from .verify import run_verification

__all__ = ["main"]

_SCHEMES = {scheme.label.replace("-", "").lower(): scheme for scheme in _ALL_SCHEMES}


def _step(tau_exp: int) -> float:
    """The coarsest step 2^-E, a positive float for E in 0..1074."""
    return 2.0 ** -_check_count(tau_exp, "--tau-exp", 0, 1074)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caputo-lk",
        description="Discrete Caputo derivatives and their convergence orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("order-table", help="render one of the built-in convergence studies")
    p_table.add_argument("--table", type=int, required=True, choices=(1, 2, 3, 4))
    p_table.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p_table.add_argument("--out", default=None, help="output path (default: stdout)")
    p_table.set_defaults(handler=_cmd_order_table)

    # order and first-node share the scheme, alpha, beta and step options
    p_order = sub.add_parser("order", help="measure one interior convergence order at the kink")
    p_first = sub.add_parser("first-node", help="measure the error and order at the first grid node")
    for p, handler in ((p_order, _cmd_order), (p_first, _cmd_first_node)):
        p.add_argument("--scheme", required=True, choices=_SCHEMES)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--tau-exp", type=int, default=7, help="coarsest step is 2^-E (default 7)")
        p.set_defaults(handler=handler)
    p_order.add_argument("--m", type=int, required=True)
    p_order.add_argument("--xi", type=float, default=0.5)

    sub.add_parser("verify", help="run the self-check suite").set_defaults(handler=_cmd_verify)
    return parser


def _cmd_order_table(args: argparse.Namespace) -> int:
    text = render(reproduce_table(args.table), args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    f = HolderTestFunction(m=args.m, beta=args.beta, xi=args.xi)
    row = order_interior(_SCHEMES[args.scheme], f, args.alpha, _step(args.tau_exp))
    print(
        f"scheme={row.scheme.label} alpha={row.alpha:g} m={row.m} beta={row.beta:g} "
        f"xi={row.xi:g} tau=2^-{args.tau_exp} "
        f"measured_R={row.measured_R:.4f} theoretical={row.theoretical_order:.4f}"
    )
    return 0


def _cmd_first_node(args: argparse.Namespace) -> int:
    f = HolderTestFunction(m=2, beta=args.beta, xi=0.5)
    row = order_first_node(_SCHEMES[args.scheme], f, args.alpha, _step(args.tau_exp))
    print(
        f"scheme={row.scheme.label} alpha={row.alpha:g} beta={row.beta:g} "
        f"tau=2^-{args.tau_exp} error={row.error:.6e} "
        f"measured_R={row.measured_R:.4f} expected={2.0 - row.alpha:.4f}"
    )
    return 0


def _cmd_verify(_: argparse.Namespace) -> int:
    results = run_verification()
    for r in results:
        print(f"{'ok  ' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    passed = sum(r.ok for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, DegenerateDifferenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DegenerateDifferenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
