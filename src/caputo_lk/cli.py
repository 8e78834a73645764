"""Command-line interface.

Subcommands: ``order-table`` writes one built-in convergence study, as
``harness.render`` gives it, to stdout or ``--out``; ``order`` measures
a single interior convergence order, ``first-node`` the error and order
at the first grid node, and ``verify`` runs the self-check suite.  Exit
codes: 0 on success, 1 when a verification or order measurement fails,
2 on usage errors and on an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    DegenerateDifferenceError,
    order_first_node,
    order_interior,
    render,
    reproduce_table,
)
from .holder import HolderTestFunction
from .interp import SchemeKind
from .verify import run_verification

__all__ = ["main"]


def _scheme_from_args(name: str, k: int | None) -> SchemeKind:
    if name == "lk":
        if k is None:
            raise ValueError("--scheme lk needs --k")
        return SchemeKind.lk(k)
    if k is not None:
        raise ValueError(f"--k only applies to --scheme lk, not {name}")
    return {"l1": SchemeKind.l1, "l2": SchemeKind.l2, "l12": SchemeKind.l12}[name]()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caputo-lk",
        description="Discrete Caputo derivatives and their convergence orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "order-table", help="render one of the built-in convergence studies"
    )
    p_table.add_argument("--table", type=int, required=True, choices=(1, 2, 3, 4))
    p_table.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p_table.add_argument("--out", default=None, help="output path (default: stdout)")
    p_table.set_defaults(handler=_cmd_order_table)

    p_order = sub.add_parser(
        "order", help="measure one interior convergence order at the kink"
    )
    p_order.add_argument(
        "--scheme", required=True, choices=("l1", "l2", "l12", "lk")
    )
    p_order.add_argument("--k", type=int, default=None, help="degree for --scheme lk")
    p_order.add_argument("--alpha", type=float, required=True)
    p_order.add_argument("--m", type=int, required=True)
    p_order.add_argument("--beta", type=float, required=True)
    p_order.add_argument("--xi", type=float, default=0.5)
    p_order.add_argument(
        "--tau-exp", type=int, default=7, help="coarsest step is 2^-E (default 7)"
    )
    p_order.set_defaults(handler=_cmd_order)

    p_first = sub.add_parser(
        "first-node", help="measure the error and order at the first grid node"
    )
    p_first.add_argument("--scheme", required=True, choices=("l2", "l12"))
    p_first.add_argument("--alpha", type=float, required=True)
    p_first.add_argument("--beta", type=float, required=True)
    p_first.add_argument(
        "--tau-exp", type=int, default=7, help="coarsest step is 2^-E (default 7)"
    )
    p_first.set_defaults(handler=_cmd_first_node)

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
    scheme = _scheme_from_args(args.scheme, args.k)
    f = HolderTestFunction(m=args.m, beta=args.beta, xi=args.xi)
    row = order_interior(scheme, f, args.alpha, 2.0 ** -args.tau_exp)
    print(
        f"scheme={row.scheme.label} alpha={row.alpha:g} m={row.m} beta={row.beta:g} "
        f"xi={row.xi:g} tau=2^-{args.tau_exp} "
        f"measured_R={row.measured_R:.4f} theoretical={row.theoretical_order:.4f}"
    )
    return 0


def _cmd_first_node(args: argparse.Namespace) -> int:
    scheme = _scheme_from_args(args.scheme, None)
    f = HolderTestFunction(m=2, beta=args.beta, xi=0.5)
    row = order_first_node(scheme, f, args.alpha, 2.0 ** -args.tau_exp)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateDifferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
