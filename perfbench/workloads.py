"""The benchmark's three workloads: inputs made from a seed, the request each
input becomes, and the check every answer must pass.

A workload is a list of ``Request`` objects.  ``Request.run`` is the timed
call into rowfibers' public API; ``Request.check`` runs afterwards, outside
the timed region and untraced, and returns the canonical answer plus a list
of problems (empty when the answer is correct).

Inputs are built in set-up from ``random.Random(f"{workload}/{seed}")`` and
parsed with ``PolyRing.parse``.  A map's ``MapContext`` is built lazily by
the first request that uses it, so building it counts toward that request.
Requests run in a fixed order, map by map: a request that reuses a context
finds whatever the requests before it left there, and a seeded order would
move that work between requests.

Input sizes are fixed per workload (the seed picks monomials, points and
context seeds, never how many of each), so that the cost of a pass hardly
depends on the seed.  Input families whose single requests outlast a run,
or whose cost swings with the seed, are left out; the comments at each
workload say which.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from rowfibers import CoefficientField, Ideal, MapContext, PolyRing, ProjectivePoint
from rowfibers.cli import main as cli_main

WORKLOADS = ("fiber_chain", "power_rows", "cli_data")

FP = CoefficientField(32003)

GOLDEN_MAPS = {
    "cover": (("a", "b", "c", "d"), ("a*b^2", "a*c^2", "b^2*c", "b*c^2", "b*c*d")),
    "quartic": (("s", "t"), ("s^4", "s^3*t", "s*t^3", "t^4")),
    "twisted": (("s", "t"), ("s^3", "s^2*t", "s*t^2", "t^3")),
    "double": (("s", "t"), ("s^4", "s^2*t^2", "t^4")),
}
# analytic spreads, from the elimination oracle at the seed commit
GOLDEN_SPREAD = {"cover": 4, "quartic": 2, "twisted": 2}

# fiber_chain: the (map, coordinate point) pairs over F_p of acceptance
# criterion 8i; one random monomial map on P^1 of each shape (degree,
# generator count); three random quadric maps P^2 -> P^2; and the heavy tail,
# a quadric map P^2 -> P^3 whose generic fibers take about 1.3 s each.  That
# cost depends on the variable order (about 2 s under three of the six), so
# the map is fixed and only its points come from the seed.  Left out because
# one request outlasts a run: generic points on the monomial cover (30-35 s
# each) and random cubic maps on P^2 (up to 86 s for one fiber report).
GOLDEN_PAIRS = (("cover", 4), ("quartic", 0), ("quartic", 1), ("twisted", 2), ("double", 0))
P1_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4))
HEAVY_MAP = ("x2^2", "x0*x2", "x0*x1", "x1^2")
# Generic points per map, where not one image and one random target.  The
# heavy map's four images fill the top of the latency distribution, and the
# tail percentile falls in the middle of them, not on one seed-dependent
# request.
GENERIC_POINTS = {"cover": (), "p2heavy": ("image",) * 4}


@dataclass
class Request:
    key: str
    fixed: bool  # True when the input (hence the answer) does not depend on the seed
    run: Callable[[], object]
    check: Callable[[object], tuple]
    map: Optional["LazyMap"] = None


class LazyMap:
    """A map's generators; its MapContext is built by the first request."""

    def __init__(self, ring: PolyRing, texts, ctx_seed: int = 0):
        self.ring = ring
        self.texts = tuple(texts)
        self.generators = [ring.parse(t) for t in texts]
        self.ctx_seed = ctx_seed
        self._context = None

    @property
    def built(self) -> bool:
        return self._context is not None

    def context(self) -> MapContext:
        if self._context is None:
            self._context = MapContext(Ideal(self.ring, self.generators), seed=self.ctx_seed)
        return self._context


def build(workload: str, seed: int, size: str, root: Path) -> list:
    """The requests of one pass of ``workload``; ``size`` is "full" or "tiny"."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "fiber_chain":
        return _fiber_chain(rng, size)
    if workload == "power_rows":
        return _power_rows(rng, size)
    if workload == "cli_data":
        return _cli_data(seed, size, root)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def render_ideal(I: Ideal):
    return {"unit": True} if I.is_unit() else I.canonical_strings()


def render_point(p: ProjectivePoint):
    return [p.field.coeff_str(c) for c in p.coords]


def _golden(name: str, ctx_seed: int = 0) -> LazyMap:
    names, texts = GOLDEN_MAPS[name]
    return LazyMap(PolyRing(FP, names), texts, ctx_seed)


def _mono_text(exps) -> str:
    factors = []
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    return "*".join(factors)


def _monomials(nvars: int, degree: int) -> list:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def _random_monomial_map(rng, nvars: int, degree: int, count: int) -> LazyMap:
    """Distinct monomials of one degree, redrawn until every variable occurs
    and no variable divides them all (for monomial ideals that is
    codimension >= 2).  ``tests/helpers.random_equigenerated_context`` draws
    the same way but also allows maps that skip a variable; on P^2 those are
    maps of P^1 in disguise and cost a fifth of the others."""
    monos = _monomials(nvars, degree)
    while True:
        chosen = rng.sample(monos, count)
        if all(any(e[v] for e in chosen) and not all(e[v] for e in chosen)
               for v in range(nvars)):
            break
    ring = PolyRing(FP, [f"x{i}" for i in range(nvars)])
    return LazyMap(ring, [_mono_text(e) for e in chosen], rng.randrange(10**6))


def _coordinate_point(r1: int, index: int) -> ProjectivePoint:
    return ProjectivePoint.standard(FP, r1, index)


def _image_point(rng, lm: LazyMap) -> ProjectivePoint:
    """phi(p) for a random source point p off the base locus."""
    nvars = lm.ring.nvars
    while True:
        coords = [rng.randrange(FP.p) for _ in range(nvars)]
        values = [g.evaluate(coords) for g in lm.generators]
        if any(values):
            return ProjectivePoint(FP, values)


def _target_point(rng, r1: int) -> ProjectivePoint:
    while True:
        coords = [rng.randrange(FP.p) for _ in range(r1)]
        if any(coords):
            return ProjectivePoint(FP, coords)


# ---------------------------------------------------------------------------
# fiber_chain: MapContext.fiber_report over F_32003
# ---------------------------------------------------------------------------

# answers stated by the acceptance suite (criteria 1 and 5)
FIBER_KNOWN = {
    "fixed/cover@e4": {
        "row": ["b", "c"],
        "correspondence": ["a^2", "b", "c"],
        "stabilized_at": 2,
        "confirmed": True,
        "morphism": {"unit": True},
    },
    "fixed/quartic@e0": {"row": ["t"]},
}


def _fiber_request(key: str, fixed: bool, lm: LazyMap, q: ProjectivePoint) -> Request:
    def run():
        return lm.context().fiber_report(q)

    def check(rep):
        problems = []
        if not rep.chain_verified:
            problems.append("chain_verified is false")
        chain = [rep.subspace, rep.row, rep.correspondence, rep.morphism]
        names = ["subspace", "row", "correspondence", "morphism"]
        for k in range(3):
            if not chain[k + 1].contains_ideal(chain[k]):
                problems.append(f"{names[k]} is not contained in {names[k + 1]}")
        answer = {name: render_ideal(I) for name, I in zip(names, chain)}
        answer.update(
            stabilized_at=rep.stabilized_at,
            confirmed=rep.confirmed,
            chain_verified=rep.chain_verified,
        )
        for field, value in FIBER_KNOWN.get(key, {}).items():
            if answer[field] != value:
                problems.append(f"{field} is {answer[field]!r}, expected {value!r}")
        return answer, problems

    return Request(key, fixed, run, check, lm)


def _fiber_chain(rng, size: str) -> list:
    """Fibers at every coordinate point of each map (monomial routes), at the
    image of a random source point and at a random point of P^r (Buchberger
    on non-monomial input)."""
    goldens = {name: _golden(name) for name in GOLDEN_MAPS}
    requests = [
        _fiber_request(f"fixed/{name}@e{i}", True, goldens[name],
                       _coordinate_point(len(goldens[name].generators), i))
        for name, i in GOLDEN_PAIRS
    ]
    maps = {"cover": goldens["cover"]}
    if size == "full":
        maps.update((name, goldens[name]) for name in ("quartic", "twisted", "double"))
        for degree, count in P1_SHAPES:
            maps[f"p1deg{degree}count{count}"] = _random_monomial_map(rng, 2, degree, count)
        for k in range(3):
            maps[f"p2quadric{k}"] = _random_monomial_map(rng, 3, 2, 3)
        maps["p2heavy"] = LazyMap(PolyRing(FP, ["x0", "x1", "x2"]), HEAVY_MAP)
    else:
        maps["p1deg2count3"] = _random_monomial_map(rng, 2, 2, 3)
    for name, lm in maps.items():
        r1 = len(lm.generators)
        fixed_map = name in GOLDEN_MAPS or name == "p2heavy"
        for i in range(r1):
            if (name, i) not in GOLDEN_PAIRS:
                prefix = "fixed" if fixed_map else "seeded"
                requests.append(_fiber_request(
                    f"{prefix}/{name}@e{i}", fixed_map, lm, _coordinate_point(r1, i)))
        for k, kind in enumerate(GENERIC_POINTS.get(name, ("image", "target"))):
            q = _image_point(rng, lm) if kind == "image" else _target_point(rng, r1)
            requests.append(_fiber_request(f"seeded/{name}@{kind}{k}", False, lm, q))
    return requests


# ---------------------------------------------------------------------------
# power_rows: point presentations of I^d
# ---------------------------------------------------------------------------


def _power_request(key: str, lm: LazyMap, d: int, golden_spread: Optional[int]) -> Request:
    """Rows of a point presentation of I^d; on a golden map every row must be
    linear of codimension spread - 1 and must not contain I^d."""
    def run():
        ctx = lm.context()
        pp = ctx.point_presentation(d)
        power = ctx.power_context(d).ideal
        rows = []
        for k in range(pp.matrix.row_count):
            row = pp.row_ideal(k)
            rows.append((row, row.is_linear(), row.codimension(), row.contains_ideal(power)))
        return pp, rows

    def check(result):
        pp, rows = result
        spread = golden_spread
        if spread is None:  # the elimination oracle, on a context of its own
            spread = MapContext(Ideal(lm.ring, lm.generators)).special_fiber_dimension()
        bound = spread - 1
        problems = []
        for k, (row, linear, codim, contains) in enumerate(rows):
            if row.is_unit():
                problems.append(f"row {k} is the unit ideal")
            elif codim > bound:
                problems.append(f"row {k} has codimension {codim} > spread - 1 = {bound}")
            if golden_spread is not None and not (linear and codim == bound and not contains):
                problems.append(
                    f"row {k}: linear={linear} codim={codim} contains I^d={contains}, "
                    f"expected linear of codimension {bound} not containing I^d"
                )
        answer = {
            "points": [render_point(p) for p in pp.points],
            "rows": [[render_ideal(row), linear, codim, contains]
                     for row, linear, codim, contains in rows],
        }
        return answer, problems

    return Request(key, False, run, check, lm)


# Besides the goldens, every quadric monomial map P^2 -> P^3 (all 15 sets of
# four quadrics, each of codimension >= 2) at d = 2, twice, each time on a
# context with its own seed and hence its own sample points.  These take
# 0.03-0.10 s, depending on the map and the points, and the median falls
# among them; with 30 of them it hardly moves with the seed.  Random cubic
# maps and maps with 5 generators take 0.03-0.54 s and are left out.
def _power_rows(rng, size: str) -> list:
    requests = []
    powers = range(2, 7) if size == "full" else range(2, 3)
    golden_names = ("quartic", "twisted", "cover") if size == "full" else ("twisted",)
    for name in golden_names:
        lm = _golden(name, rng.randrange(10**6))
        for d in (powers if name != "cover" else (2,)):
            requests.append(_power_request(f"{name}/d{d}", lm, d, GOLDEN_SPREAD[name]))
    supports = list(itertools.combinations(_monomials(3, 2), 4))
    for k in range(2 if size == "full" else 1):
        for support in supports if size == "full" else supports[:1]:
            ring = PolyRing(FP, ["x0", "x1", "x2"])
            lm = LazyMap(ring, [_mono_text(e) for e in support], rng.randrange(10**6))
            key = "quadric[" + ",".join(lm.texts) + f"].{k}/d2"
            requests.append(_power_request(key, lm, 2, None))
    return requests


# ---------------------------------------------------------------------------
# cli_data: README invocations and plane cubics through rowfibers.cli.main
# ---------------------------------------------------------------------------

_UNIT = {"unit": True}
_MONOMIAL_J = ["a*b^2", "a*c^2", "b*c^2", "b^2*c"]

# (argv, expected results fields), from the README, tests/test_cli.py and
# the acceptance criteria; fields that depend on --seed are left out.  With
# five trials, birational on the plane cubics costs about what spread does,
# so the tail percentile falls among those two and not on the edge of one.
CLI_INVOCATIONS = [
    (["fiber", "monomial_cover.txt", "--at", "q", "--kind", "all"],
     {"row": ["b", "c"], "correspondence": ["a^2", "b", "c"], "stabilized_at": 2,
      "confirmed": True, "morphism": _UNIT, "chain_verified": True,
      "codimensions": {"row": 2, "correspondence": 3, "morphism": _UNIT}}),
    (["spread", "quartic_curve.txt", "--trials", "5"],
     {"analytic_spread": 2, "special_fiber_dimension": 2}),
    (["birational", "quartic_curve.txt", "--certify", "e0"],
     {"birational": True, "mode": "certificate", "point": ["1", "0", "0", "0"]}),
    (["hks", "quartic_matrices.txt", "--ideal", "IF", "--matrix", "M2", "--at", "e0"],
     {"applicable": True, "bound": 2, "rank": 3, "reason": "ok", "row_ideal": ["t"]}),
    (["point-presentation", "quartic_curve.txt", "--power", "2"], {"power": 2}),
    (["gb", "monomial_cover.txt", "J"], {"groebner": _MONOMIAL_J}),
    (["colon", "monomial_cover.txt", "I", "J"], {"result": _UNIT}),
    (["saturate", "monomial_cover.txt", "I", "J"], {"result": _UNIT}),
    (["codim", "monomial_cover.txt", "I"], {"codimension": 2}),
    (["linear-rows", "monomial_cover.txt", "--samples", "50"],
     {"verdict": "pass", "counterexample": None}),
    (["fiber", "plane_cubics.txt", "--at", "q"],
     {"morphism": ["x0*x1 - x2^2"], "chain_verified": True}),
    (["birational", "plane_cubics.txt", "--trials", "5"],
     {"birational": True, "mode": "general-point", "trials": 5}),
    (["spread", "plane_cubics.txt"], {"analytic_spread": 3, "special_fiber_dimension": 3}),
    (["fiber", "plane_cubics.txt", "--at", "q", "--kind", "morphism"],
     {"morphism": ["x0*x1 - x2^2"]}),
    (["birational", "quartic_curve.txt"], {"birational": True}),
    (["linear-rows", "quartic_curve.txt", "--samples", "5"], {"verdict": "fail"}),
    (["linear-rows", "monomial_cover.txt", "--samples", "5"],
     {"verdict": "pass", "counterexample": None}),
    (["fiber", "monomial_cover.txt", "--at", "q", "--max-power", "2"], {"confirmed": False}),
    (["gb", "monomial_cover.txt", "J", "--order", "lex"], {"groebner": _MONOMIAL_J}),
]

TINY_CLI = (0, 1, 3, 4)


def _cli_request(argv: list, expected: dict, seed: int, data: Path) -> Request:
    full_argv = [argv[0], str(data / argv[1]), *argv[2:], "--json", "--seed", str(seed)]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(full_argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return text, [f"exit code {code}"]
        report = json.loads(text)
        problems = []
        if report["seed"] != seed:
            problems.append(f"report seed {report['seed']} != {seed}")
        results = report["results"]
        for field, value in expected.items():
            if results.get(field) != value:
                problems.append(f"{field} is {results.get(field)!r}, expected {value!r}")
        if argv[0] == "point-presentation":
            rows = results["rows"]
            if len(rows) != 9 or not all(r["linear"] and r["codimension"] == 1 for r in rows):
                problems.append("quartic I^2 rows are not 9 linear rows of codimension 1")
        if argv[:2] == ["linear-rows", "quartic_curve.txt"] and results["counterexample"] is None:
            problems.append("failed verdict without a counterexample")
        return text, problems

    return Request(" ".join(argv), False, run, check)


def _cli_data(seed: int, size: str, root: Path) -> list:
    data = root / "tests" / "data"
    chosen = CLI_INVOCATIONS if size == "full" else [CLI_INVOCATIONS[i] for i in TINY_CLI]
    requests = [_cli_request(argv, expected, seed, data) for argv, expected in chosen]
    return requests
