"""Command-line interface: problem-file parsing, dispatch, JSON reporting.

Problem files are line-oriented:

    field 32003            # or 0 for the rationals; append "with-i" for sqrt(-1)
    vars a b c d
    ideal J: a*b^2 a*c^2 b^2*c b*c^2
    ideal I: J + b*c*d
    point q: 0 0 0 0 1
    matrix M: presentation.mat

Text after `#` is a comment, here and in matrix files.  Generators and
point coordinates are separated by spaces, so a polynomial inside a problem
file contains none; `name + poly` sums combine previously declared ideals
with extra generators, so an ideal's name must not read as a polynomial (a
variable, `i` over a field with it, a constant).  Every polynomial, matrix
entry and point coordinate is read with the one grammar of `PolyRing.parse`:
names are read whole, so `x*y` and `i*x` need their `*`.  A point
coordinate is a constant written as in polynomials.  Output is
human-readable by default and canonical JSON under --json; with a fixed seed
the JSON is byte-identical across runs.

Exit codes: 0 success, 2 validation error, 3 computation error,
4 unconfirmed chain stabilization under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .fibers import (
    DEFAULT_MAX_POWER,
    ConsistencyError,
    MapContext,
    ProjectivePoint,
    SamplingError,
)
from .ideals import UNIT_CODIM, Ideal
from .polyring import CoefficientField, MonomialOrder, ParseError, PolyRing
from .syzygy import matrix_from_rows, parse_matrix_rows

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3
EXIT_UNCONFIRMED = 4


class ProblemError(ValueError):
    """Invalid problem text, or a name that the problem file does not declare."""


class ProblemFile:
    """A parsed problem file: the ring plus named ideals, points, matrices."""

    def __init__(self, ring: PolyRing, ideals: dict, points: dict, matrices: dict):
        self.ring = ring
        self.ideals = ideals
        self.points = points
        self.matrices = matrices

    def ideal(self, name: str) -> Ideal:
        if name not in self.ideals:
            raise ProblemError(f"unknown ideal {name!r}")
        return self.ideals[name]

    def point(self, name: str) -> ProjectivePoint:
        if name not in self.points:
            raise ProblemError(f"unknown point {name!r}")
        return self.points[name]

    def matrix_rows(self, name: str):
        if name not in self.matrices:
            raise ProblemError(f"unknown matrix {name!r}")
        return self.matrices[name]


def parse_problem(text: str, base_dir: Path | None = None,
                  order: MonomialOrder | None = None) -> ProblemFile:
    field = None
    ring = None
    ideals: dict = {}
    points: dict = {}
    matrices: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        # every ValueError below, a ProblemError or one from the ring, the
        # polynomial grammar or a matrix file, leaves with the line number
        try:
            if head == "field":
                if field is not None:
                    raise ProblemError("duplicate field declaration")
                if not rest:
                    raise ProblemError("field needs a characteristic")
                p, *options = rest.split()
                if options not in ([], ["with-i"]):
                    raise ProblemError(f"unexpected field options {options}")
                field = CoefficientField(int(p), with_i=bool(options))
            elif head == "vars":
                if field is None:
                    raise ProblemError("vars before field declaration")
                if ring is not None:
                    raise ProblemError("duplicate vars declaration")
                ring = PolyRing(field, rest.split(), order)
            elif head in ("ideal", "point", "matrix"):
                if ring is None:
                    raise ProblemError(f"{head} before vars declaration")
                name, colon, body = rest.partition(":")
                name = name.strip()
                body = body.strip()
                if not colon or not name:
                    raise ProblemError(f"expected `{head} <name>: ...`")
                if name in ideals or name in points or name in matrices:
                    raise ProblemError(f"duplicate name {name!r}")
                if head == "ideal":
                    ideals[name] = _parse_ideal(ring, ideals, name, body)
                elif head == "point":
                    points[name] = _parse_point_body(ring, body)
                elif base_dir is None:
                    raise ProblemError("matrix references need a base directory")
                elif not (base_dir / body).is_file():
                    raise ProblemError(f"matrix file {body!r} not found")
                else:
                    matrices[name] = parse_matrix_rows(ring, (base_dir / body).read_text())
            else:
                raise ProblemError(f"unknown directive {head!r}")
        except ValueError as exc:
            raise ProblemError(f"line {lineno}: {exc}") from exc
    if field is None:
        raise ProblemError("missing field declaration")
    if ring is None:
        raise ProblemError("missing vars declaration")
    return ProblemFile(ring, ideals, points, matrices)


def _parse_ideal(ring: PolyRing, ideals: dict, name: str, body: str) -> Ideal:
    """Generators separated by spaces, or summands joined by '+'; a summand
    is a declared ideal or a polynomial, so an ideal's name must not read as
    a polynomial."""
    try:
        ring.parse(name)
    except ParseError:
        pass
    else:
        raise ProblemError(f"ideal name {name!r} reads as a polynomial")
    items = body.split()
    if not items:
        raise ProblemError("ideal needs at least one generator")
    if "+" in items:
        items, pluses = items[::2], items[1::2]
        if "+" in items or pluses != ["+"] * (len(items) - 1):
            raise ProblemError("misplaced '+' in ideal sum")
    gens = []
    for item in items:
        if item in ideals:
            gens.extend(ideals[item].generators)
        else:
            try:
                gens.append(ring.parse(item))
            except ParseError as exc:
                raise ProblemError(f"bad polynomial {item!r}: {exc}")
    return Ideal(ring, gens)


def _parse_point_body(ring: PolyRing, body: str) -> ProjectivePoint:
    """Each coordinate is a constant written as in polynomials."""
    origin = (0,) * ring.nvars
    coords = []
    for tok in body.split():
        try:
            c = ring.parse(tok)
        except ParseError as exc:
            raise ProblemError(f"bad coordinate {tok!r}: {exc}")
        if c.total_degree():
            raise ProblemError(f"coordinate {tok!r} is not a constant")
        coords.append(c.coeffs.get(origin, ring.field.zero))
    return ProjectivePoint(ring.field, coords)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_ideal(I: Ideal):
    if I.is_unit():
        return {"unit": True}
    return I.canonical_strings()


def render_codim(value):
    if value == UNIT_CODIM:
        return {"unit": True}
    return value


def render_point(p: ProjectivePoint):
    return [p.field.coeff_str(c) for c in p.coords]


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _human(report: dict, elapsed: float) -> str:
    lines = [f"command: {report['command']}"]
    for key, value in report["results"].items():
        lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _context(problem: ProblemFile, name: str, seed: int) -> MapContext:
    return MapContext(problem.ideal(name), seed=seed)


def cmd_gb(problem, args):
    return {"groebner": render_ideal(problem.ideal(args.name))}


def cmd_colon(problem, args):
    return {"result": render_ideal(problem.ideal(args.left).colon(problem.ideal(args.right)))}


def cmd_saturate(problem, args):
    return {"result": render_ideal(problem.ideal(args.left).saturate(problem.ideal(args.right)))}


def cmd_codim(problem, args):
    return {"codimension": render_codim(problem.ideal(args.name).codimension())}


def _render_correspondence(corr, stabilized_at, confirmed):
    return {
        "correspondence": render_ideal(corr),
        "stabilized_at": stabilized_at,
        "confirmed": confirmed,
    }


def cmd_fiber(problem, args):
    ctx = _context(problem, args.ideal, args.seed)
    q = problem.point(args.at)
    if args.kind == "row":
        return {"row": render_ideal(ctx.row_ideal(q))}
    if args.kind == "corr":
        corr = ctx.correspondence_fiber_ideal(q, args.max_power)
        return _render_correspondence(*corr)
    if args.kind == "morphism":
        return {"morphism": render_ideal(ctx.morphism_fiber_ideal(q))}
    # one report computes each fiber ideal once; every field renders from it
    rep = ctx.fiber_report(q, args.max_power)
    return {
        "row": render_ideal(rep.row),
        **_render_correspondence(rep.correspondence, rep.stabilized_at, rep.confirmed),
        "morphism": render_ideal(rep.morphism),
        "codimensions": {k: render_codim(v) for k, v in rep.codimensions().items()},
        "linear": rep.linearity(),
        "chain_verified": rep.chain_verified,
    }


def cmd_spread(problem, args):
    ctx = _context(problem, args.ideal, args.seed)
    # analytic_spread raises ConsistencyError unless value equals the exact
    # special fiber dimension, so the checked value is that dimension
    value, codims = ctx.analytic_spread(args.trials)
    return {
        "analytic_spread": value,
        "per_trial_codimensions": codims,
        "special_fiber_dimension": value,
    }


def cmd_birational(problem, args):
    ctx = _context(problem, args.ideal, args.seed)
    if args.certify:
        q = problem.point(args.certify)
        ok = ctx.birationality_certificate(q)
        return {"birational": ok, "mode": "certificate", "point": render_point(q)}
    verdict, cert = ctx.birationality_test(args.trials)
    return {
        "birational": verdict,
        "mode": "general-point",
        "witness_point": render_point(cert["point"]),
        "fiber_ideal": render_ideal(cert["fiber_ideal"]),
        "fiber_codimension": render_codim(cert["codimension"]),
        "trials": args.trials,
    }


def cmd_hks(problem, args):
    ctx = _context(problem, args.ideal, args.seed)
    rows = problem.matrix_rows(args.matrix)
    A = matrix_from_rows(list(ctx.generators), rows)
    q = problem.point(args.at)
    res = ctx.hks_lower_bound(A, q)
    return {
        "applicable": res.applicable,
        "bound": res.bound,
        "rank": res.rank,
        "reason": res.reason,
        "row_ideal": render_ideal(A.generalized_row_ideal(q.coords)),
    }


def cmd_linear_rows(problem, args):
    ctx = _context(problem, args.ideal, args.seed)
    ctx = ctx.power_context(args.power)
    verdict, counterexample = ctx.linear_generalized_rows_check(args.samples)
    return {
        "verdict": verdict,
        "counterexample": render_point(counterexample) if counterexample else None,
    }


def cmd_point_presentation(problem, args):
    ctx = _context(problem, args.ideal, args.seed)
    pp = ctx.point_presentation(args.power)
    rows = []
    for i in range(pp.matrix.row_count):
        ri = pp.row_ideal(i)
        rows.append(
            {
                "point": render_point(pp.points[i]),
                "row_ideal": render_ideal(ri),
                "linear": ri.is_linear(),
                "codimension": render_codim(ri.codimension()),
            }
        )
    return {"power": args.power, "rows": rows}


COMMANDS = {
    "gb": cmd_gb,
    "colon": cmd_colon,
    "saturate": cmd_saturate,
    "codim": cmd_codim,
    "fiber": cmd_fiber,
    "spread": cmd_spread,
    "birational": cmd_birational,
    "hks": cmd_hks,
    "linear-rows": cmd_linear_rows,
    "point-presentation": cmd_point_presentation,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("problem", help="problem file path")
    shared.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    shared.add_argument("--json", action="store_true", help="canonical JSON output")
    shared.add_argument(
        "--order", choices=["grevlex", "lex"], default="grevlex",
        help="default monomial order",
    )

    parser = argparse.ArgumentParser(
        prog="rowfibers",
        description="Fiber ideals, analytic spread, and birationality of rational maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gb", parents=[shared], help="reduced Groebner basis")
    p.add_argument("name")
    p = sub.add_parser("colon", parents=[shared], help="ideal quotient I : J")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("saturate", parents=[shared], help="saturation I : J^infty")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("codim", parents=[shared], help="codimension (height)")
    p.add_argument("name")
    p = sub.add_parser("fiber", parents=[shared], help="fiber ideals at a point")
    p.add_argument("--ideal", default="I")
    p.add_argument("--at", required=True)
    p.add_argument("--kind", choices=["row", "corr", "morphism", "all"], default="all")
    p.add_argument("--max-power", type=int, default=DEFAULT_MAX_POWER)
    p.add_argument("--strict", action="store_true",
                   help="exit 4 on unconfirmed chain stabilization")
    p = sub.add_parser("spread", parents=[shared], help="analytic spread")
    p.add_argument("--ideal", default="I")
    p.add_argument("--trials", type=int, default=3)
    p = sub.add_parser("birational", parents=[shared], help="birationality test")
    p.add_argument("--ideal", default="I")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--certify", default=None, help="certificate point name")
    p = sub.add_parser("hks", parents=[shared], help="syzygy-matrix spread bound")
    p.add_argument("--ideal", default="I")
    p.add_argument("--matrix", required=True)
    p.add_argument("--at", required=True)
    p = sub.add_parser("linear-rows", parents=[shared], help="linear generalized rows check")
    p.add_argument("--ideal", default="I")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--samples", type=int, default=20)
    p = sub.add_parser(
        "point-presentation", parents=[shared], help="presentation with point-attributed rows"
    )
    p.add_argument("--ideal", default="I")
    p.add_argument("--power", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    order = MonomialOrder.lex() if args.order == "lex" else MonomialOrder.grevlex()
    started = time.monotonic()
    try:
        path = Path(args.problem)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ProblemError(f"cannot read problem file: {exc}")
        problem = parse_problem(text, base_dir=path.parent, order=order)
        results = COMMANDS[args.command](problem, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SamplingError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    if getattr(args, "strict", False) and results.get("confirmed") is False:
        print("error: correspondence chain did not confirm stabilization", file=sys.stderr)
        return EXIT_UNCONFIRMED
    report = {
        "command": args.command,
        "seed": args.seed,
        "order": args.order,
        "field": {
            "characteristic": problem.ring.field.p,
            "with_i": problem.ring.field.sqrt_minus_one is not None,
        },
        "results": results,
    }
    if args.json:
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(_human(report, time.monotonic() - started))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
