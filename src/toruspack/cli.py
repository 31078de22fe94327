"""Command line interface: solve, pipeline, verify."""
from __future__ import annotations

import argparse
import math
import sys

from .errors import DegenerateLattice
from .lattice import DEFAULT_TOL, TOL_CEIL
from .packing import to_json
from .solve import solve_report


def _vec(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _at_least(low: float, kind: type):
    """The argparse type of a finite number of the given kind that is at
    least low."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}") from None
        if not low <= value < math.inf:  # a NaN fails too
            raise argparse.ArgumentTypeError(f"expected {kind.__name__} in [{low}, inf), got {text!r}")
        return value

    return parse


def _tangency_tol(text: str) -> float:
    """The argparse type of --tol: a number in [0, TOL_CEIL]."""
    value = _at_least(0.0, float)(text)
    if value > TOL_CEIL:
        raise argparse.ArgumentTypeError(
            f"tangency tolerance {value:g} above {TOL_CEIL:g}, past the translate window's reach")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toruspack",
        description="Optimal equal-circle packings (n = 2, 3, 4) on flat tori",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="optimal packing for one torus")
    sp.add_argument("--n", type=int, required=True, choices=(2, 3, 4))
    sp.add_argument("--v1", type=_vec, required=True, metavar="ax,ay")
    sp.add_argument("--v2", type=_vec, required=True, metavar="bx,by")
    sp.add_argument("--tol", type=_tangency_tol, default=DEFAULT_TOL, help="tangency tolerance")
    sp.add_argument("--json", action="store_true", help="print the full JSON record")
    sp.add_argument("--svg", metavar="PATH", help="write the packing figure")

    pp = sub.add_parser("pipeline", help="census -> embeddings -> filters -> verdicts")
    pp.add_argument("--n", type=int, required=True, choices=(3, 4))
    pp.add_argument("--out", required=True, metavar="DIR")
    pp.add_argument("--skip-oracle", action="store_true", help="leave out the formula/oracle table")
    pp.add_argument("--seed", type=_at_least(0, int), default=0)
    pp.add_argument(
        "--lenient",
        action="store_true",
        help="downgrade published count, name and verdict mismatches to warnings",
    )

    vp = sub.add_parser("verify", help="formula vs numerical oracle over sampled tori")
    vp.add_argument("--n", type=int, required=True, choices=(2, 3, 4))
    vp.add_argument("--samples", type=_at_least(1, int), default=20)
    vp.add_argument("--seed", type=_at_least(0, int), default=0)
    vp.add_argument("--restarts", type=_at_least(1, int), default=200)
    vp.add_argument("--csv", metavar="PATH", help="write the comparison table")
    return ap


def cmd_solve(args) -> int:
    try:
        rec = solve_report(args.n, args.v1, args.v2, tol=args.tol)
    except DegenerateLattice as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(to_json(rec))
    else:
        print(f"moduli point    (x, y) = ({rec['moduli']['x']:.9f}, {rec['moduli']['y']:.9f})")
        print(f"scale applied   {rec['scale']:.9f}  reflected={rec['reflected']}")
        print(f"region          {rec['region']}  flags={','.join(rec['boundary_flags']) or '-'}")
        print(f"radius          {rec['radius']:.9f}  (input units: {rec['radius_original_units']:.9f})")
        print(f"density         {rec['density']:.9f}")
        print(f"tangencies      {rec['tangencies']}")
        for k, (u, w) in enumerate(rec["packing"]["centers"]):
            print(f"center {k}        ({u:.9f}, {w:.9f})")
    if args.svg:
        from .packing import graph_from_dict, packing_from_dict
        from .render import FigureSpec, render_packing

        p = packing_from_dict(rec["packing"])
        g = graph_from_dict(rec["graph"])
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_packing(p, g, FigureSpec()))
    return 0


def cmd_pipeline(args) -> int:
    from .report import CountMismatch, run_pipeline, summary_table

    try:
        record = run_pipeline(
            args.n,
            args.out,
            skip_oracle=args.skip_oracle,
            strict=not args.lenient,
            seed=args.seed,
        )
    except CountMismatch as exc:
        print(f"published checks failed: {exc}", file=sys.stderr)
        return 1
    print(summary_table(record), end="")
    return 0


def cmd_verify(args) -> int:
    from .report import oracle_disagreements, verify_run, write_oracle_csv

    rows = verify_run(args.n, args.samples, args.seed, restarts=args.restarts)
    if args.csv:
        write_oracle_csv(args.csv, rows)
    worst = max((r["gap"] for r in rows), default=0.0)
    bad = oracle_disagreements(rows)
    print(f"n={args.n}: {len(rows)} samples, worst gap {worst:.3e}, ok={not bad}")
    for line in bad[:10]:
        print(f"  {line}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "pipeline":
        return cmd_pipeline(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
