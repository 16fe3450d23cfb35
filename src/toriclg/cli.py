"""Command-line surface over the whole package.

Every subcommand prints one CommandResult: {"status": ..., "payload": ...,
"diagnostics": [...]} in JSON mode, or the same content as indented text.
Exit codes: 0 success, 1 usage, 2 domain error or failed check, 3 failed
mutation, 4 complexity limit.  Numbers are emitted as exact rational
strings; --float adds decimal shadows without replacing anything.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import constructions, degeneration, intlinalg, laurent, minkowski, mutation, period, polytope
from .constructions import CompleteIntersectionSpec, MarkovTriple
from .degeneration import Cosection, SliceDecomposition
from .errors import DomainError, InvalidDimension, ShapeMismatch

PERIOD_DEPTH = 8
CHAIN_PERIOD_DEPTH = 9


@dataclass
class CommandResult:
    status: str
    payload: dict
    diagnostics: list = field(default_factory=list)
    exit_code: int = 0


class _ArgumentParser(argparse.ArgumentParser):
    # argparse's own printers swallow OSError; a closed stdout must reach
    # main's BrokenPipeError handler instead
    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())

    def print_usage(self, file=None):
        (file or sys.stdout).write(self.format_usage())

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _read_file(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as handle:
        return handle.read()


def _poly(value, var_names=None):
    return laurent.parse((sys.stdin.read() if value == "-" else value).strip(), var_names)


def _poly_pair(a_value, b_value):
    """Each expression parsed once, both over the first's names then the second's new ones."""
    first = _poly(a_value)
    second = _poly(b_value)
    names = first.var_names + tuple(v for v in second.var_names if v not in first.var_names)
    pad = (0,) * (len(names) - first.nvars)
    at = {v: i for i, v in enumerate(second.var_names)}
    moved = {tuple(e[at[v]] if v in at else 0 for v in names): c for e, c in second.terms.items()}
    padded = {e + pad: c for e, c in first.terms.items()}
    return laurent._trusted(names, padded), laurent._trusted(names, moved)


def _approx(node):
    if isinstance(node, str):
        try:
            return float(Fraction(node))
        except (ValueError, ZeroDivisionError, OverflowError):
            return None
    if isinstance(node, dict):
        return {k: _approx(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_approx(v) for v in node]
    return node


def _face_label(key):
    return " ".join("(" + ",".join(str(x) for x in v) + ")" for v in key)


def _render(result, args):
    """The whole output text, built before anything is printed."""
    if getattr(args, "float_shadow", False):
        result.payload = dict(result.payload, approx=_approx(result.payload))
    document = {
        "status": result.status,
        "payload": result.payload,
        "diagnostics": list(result.diagnostics),
    }
    if getattr(args, "emit", "json") == "json":
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
    notes = "".join("note: %s\n" % line for line in result.diagnostics)
    return "status: %s\n%s%s\n" % (result.status, notes, json.dumps(result.payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------- commands


def cmd_period(args):
    f = _poly(args.poly)
    seq = period.period_sequence(f, args.n)
    payload = {"n": args.n, "values": [str(v) for v in seq.values]}
    return CommandResult("ok", payload)


def cmd_mutate(args):
    f = _poly(args.poly)
    data = json.loads(_read_file(args.trace))
    steps = mutation.steps_from_json(data, f.var_names)
    stages = mutation.apply_steps(f, steps)
    agree = period.periods_equal(stages[0], stages[-1], PERIOD_DEPTH)
    payload = {
        "result": laurent.format(stages[-1]),
        "intermediates": [laurent.format(g) for g in stages],
        "n": PERIOD_DEPTH,
        "periods_equal": agree,
    }
    if not agree:
        return CommandResult("fail", payload, ["period sequences diverge after replay"], exit_code=2)
    return CommandResult("ok", payload)


def cmd_newton(args):
    f = _poly(args.poly)
    P = polytope.newton_polytope(f)
    payload = {"polytope": polytope.polytope_to_json(P), "dim_affine": P.dim_affine}
    return CommandResult("ok", payload)


def cmd_equiv(args):
    f, g = _poly_pair(args.first, args.second)
    witness = mutation.equivalent_up_to_toric(f, g)
    if witness is None:
        return CommandResult(
            "fail",
            {"equivalent": False},
            ["no monomial change of variables maps the first polynomial onto the second"],
            exit_code=2,
        )
    payload = {"equivalent": True, "witness": mutation.steps_to_json([witness])[0]}
    return CommandResult("ok", payload)


def cmd_hori_vafa(args):
    try:
        spec = CompleteIntersectionSpec(args.N, tuple(args.degrees))
    except ValueError as exc:
        raise InvalidDimension(str(exc))
    f = constructions.hori_vafa(spec)
    payload = {
        "polynomial": laurent.format(f),
        "vars": list(f.var_names),
        "dim": spec.dim,
        "index": spec.index,
    }
    return CommandResult("ok", payload)


def cmd_markov(args):
    tree = constructions.markov_tree(args.depth)
    triples = sorted(t.as_tuple() for t in tree)
    payload = {"depth": args.depth, "triples": [list(t) for t in triples]}
    return CommandResult("ok", payload)


def _p2_chain(depth):
    """The weighted-plane chain from the plane model: galkin_mutate on slot
    1, depth times, each model checked for the squared triangle weights and
    for the start's period sequence to CHAIN_PERIOD_DEPTH.  One JSON entry
    per model, the start first."""
    f = constructions.catalog()["p2.f"]
    triple = MarkovTriple(1, 1, 1)
    base = period.period_sequence(f, CHAIN_PERIOD_DEPTH).values
    steps = [{"triple": list(triple.as_tuple()), "polynomial": laurent.format(f)}]
    for _ in range(depth):
        f, triple = constructions.galkin_mutate(f, triple, 1)
        weights = sorted(constructions.triangle_weights(polytope.newton_polytope(f)))
        steps.append(
            {
                "triple": list(triple.as_tuple()),
                "polynomial": laurent.format(f),
                "weights": weights,
                "weights_ok": weights == sorted(triple.weights()),
                "periods_equal": period.period_sequence(f, CHAIN_PERIOD_DEPTH).values == base,
            }
        )
    return steps


def cmd_p2_chain(args):
    steps = _p2_chain(args.depth)
    payload = {"depth": args.depth, "n": CHAIN_PERIOD_DEPTH, "steps": steps}
    if not all(s["weights_ok"] and s["periods_equal"] for s in steps[1:]):
        return CommandResult("fail", payload, ["chain invariants failed"], exit_code=2)
    return CommandResult("ok", payload)


def _iv_mutate_data(data):
    """(delta, cosection, decomposition, expected or None) from iv-mutate JSON;
    data of the wrong shape raises ShapeMismatch."""
    try:
        delta = polytope.polytope_from_json(data["polytope"])
        r = tuple(intlinalg.exact_int(x) for x in data["r"])
        cos = Cosection(r, tuple(tuple(intlinalg.exact_int(x) for x in row) for row in data["s_matrix"]))
        dec = SliceDecomposition(polytope.convex_hull(data["C1"]), polytope.convex_hull(data["C2"]))
        expected = polytope.polytope_from_json(data["expected"]) if "expected" in data else None
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ShapeMismatch("malformed iv-mutate data: %s" % exc)
    return delta, cos, dec, expected


def cmd_iv_mutate(args):
    delta, cos, dec, expected = _iv_mutate_data(json.loads(_read_file(args.data)))
    out = degeneration.mutate_polytope(delta, cos, dec)
    payload = {"polytope": polytope.polytope_to_json(out)}
    if expected is not None:
        witness = polytope.lattice_equivalent(out, expected)
        payload["expected"] = polytope.polytope_to_json(expected)
        payload["equivalent_to_expected"] = witness is not None
        if witness is None:
            return CommandResult(
                "fail", payload, ["output is not lattice equivalent to the expected polytope"], exit_code=2
            )
        A, t = witness
        payload["equivalence"] = {"A": [list(r) for r in A], "t": list(t)}
    return CommandResult("ok", payload)


def cmd_verify_minkowski(args):
    f = _poly(args.poly)
    diagnostics = []
    if args.presentation:
        pres = minkowski.presentation_from_json_dict(json.loads(_read_file(args.presentation)))
        ok, report = minkowski.verify_presentation(f, pres)
    else:
        pres, report = minkowski.search_presentation(f)
        if pres is None:
            return CommandResult(
                "fail", {"found": False}, ["no Minkowski presentation exists for this polynomial"], exit_code=2
            )
        ok = True
    faces = {_face_label(entry["face"]): entry["status"] for entry in report}
    payload = {
        "ok": ok,
        "partial": pres.partial,
        "faces": faces,
        "report": [dict(entry, face=_face_label(entry["face"])) for entry in report],
        "presentation": minkowski.presentation_to_json_dict(pres),
    }
    if not ok:
        return CommandResult("fail", payload, ["a face check failed"], exit_code=2)
    if pres.partial:
        diagnostics.append("three-dimensional faces were not decomposed")
        if not args.partial_ok:
            return CommandResult("partial", payload, diagnostics, exit_code=2)
    return CommandResult("ok", payload, diagnostics)


# ------------------------------------------------------- catalog scenarios


def _check_quadric3():
    cat = constructions.catalog()
    f0, f1 = cat["quadric3.f0"], cat["quadric3.f1"]
    change = mutation.ClusterChange(1, -1, laurent.parse("x+1", f0.var_names))
    once = mutation.apply_cluster(f0, change)
    twice = mutation.apply_cluster(once, change)
    s0 = period.period_sequence(f0, PERIOD_DEPTH).values
    s1 = period.period_sequence(f1, PERIOD_DEPTH).values
    pres = minkowski.find_presentation(f0)
    return [
        ("model built from degree data (4, [2])", constructions.hori_vafa(CompleteIntersectionSpec(4, (2,))) == f0),
        ("cluster change turns f0 into f1", once == f1),
        ("second application returns to f0 up to toric", mutation.equivalent_up_to_toric(twice, f0) is not None),
        ("period sequences agree to N=%d" % PERIOD_DEPTH, s0 == s1),
        ("a_3 equals 12 on both sides", s0[3] == 12 and s1[3] == 12),
        ("edges carry binomial coefficients", minkowski.edge_binomials_ok(f0)[0]),
        ("presentation witness verifies", pres is not None and minkowski.verify_presentation(f0, pres)[0]),
    ]


def _check_cubic3():
    cat = constructions.catalog()
    f0, f1 = cat["cubic3.f0"], cat["cubic3.f1"]
    change = mutation.ClusterChange(2, -1, laurent.parse("x+y+1", f0.var_names))
    g1 = mutation.apply_cluster(f0, change)
    g2 = mutation.apply_cluster(g1, change)
    g3 = mutation.apply_cluster(g2, change)
    pres = minkowski.find_presentation(f0)
    return [
        ("model built from degree data (4, [3])", constructions.hori_vafa(CompleteIntersectionSpec(4, (3,))) == f0),
        ("cluster change turns f0 into f1", g1 == f1),
        ("second application stays at f1 up to toric", mutation.equivalent_up_to_toric(g2, f1) is not None),
        ("third application returns to f0 up to toric", mutation.equivalent_up_to_toric(g3, f0) is not None),
        ("period sequences agree to N=%d" % PERIOD_DEPTH, period.periods_equal(f0, f1, PERIOD_DEPTH)),
        ("presentation witness verifies", pres is not None and minkowski.verify_presentation(f0, pres)[0]),
    ]


def _check_cubic4():
    cat = constructions.catalog()
    f00, f10, f11 = cat["cubic4.f00"], cat["cubic4.f10"], cat["cubic4.f11"]
    factor = laurent.parse("x+y+1", f00.var_names)
    cz = mutation.ClusterChange(2, -1, factor)
    ct = mutation.ClusterChange(3, -1, factor)
    again = mutation.apply_cluster(f10, cz)
    pres = minkowski.find_presentation(f00)
    s = [period.period_sequence(g, PERIOD_DEPTH).values for g in (f00, f10, f11)]
    return [
        ("model built from degree data (5, [3])", constructions.hori_vafa(CompleteIntersectionSpec(5, (3,))) == f00),
        ("first cluster change turns f00 into f10", mutation.apply_cluster(f00, cz) == f10),
        ("second cluster change turns f10 into f11", mutation.apply_cluster(f10, ct) == f11),
        ("repeating the first change stays at f10 up to toric", mutation.equivalent_up_to_toric(again, f10) is not None),
        (
            "repeating it once more returns to f00 up to toric",
            mutation.equivalent_up_to_toric(mutation.apply_cluster(again, cz), f00) is not None,
        ),
        (
            "either change sends f11 back to f10 up to toric",
            mutation.equivalent_up_to_toric(mutation.apply_cluster(f11, cz), f10) is not None
            and mutation.equivalent_up_to_toric(mutation.apply_cluster(f11, ct), f10) is not None,
        ),
        ("period sequences agree to N=%d" % PERIOD_DEPTH, s[0] == s[1] == s[2]),
        (
            "partial presentation witness verifies",
            pres is not None and pres.partial and minkowski.verify_presentation(f00, pres)[0],
        ),
    ]


def _check_p3():
    cat = constructions.catalog()
    f1, f2, f3 = cat["p3.f1"], cat["p3.f2"], cat["p3.f3"]
    f1p, f1pp = cat["p3.f1p"], cat["p3.f1pp"]
    factor = laurent.parse("x+1", f1.var_names)
    rewrite1 = laurent.monomial_substitute(f1, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    rewrite2 = laurent.monomial_substitute(f1, [[1, 0, 0], [0, 1, 0], [1, -1, 1]])
    g = mutation.apply_cluster(f1p, mutation.ClusterChange(2, 1, factor))
    h = mutation.apply_cluster(f1pp, mutation.ClusterChange(2, 1, factor))
    base = period.period_sequence(f1, PERIOD_DEPTH).values
    return [
        ("model built from degree data (3, [])", constructions.hori_vafa(CompleteIntersectionSpec(3, ())) == f1),
        ("monomial rewrite reaches the first variant", rewrite1 == f1p),
        ("monomial rewrite reaches the second variant", rewrite2 == f1pp),
        ("first variant mutates to f3 up to toric", mutation.equivalent_up_to_toric(g, f3) is not None),
        ("second variant mutates to f2 up to toric", mutation.equivalent_up_to_toric(h, f2) is not None),
        ("and once more lands exactly on f3", mutation.apply_cluster(h, mutation.ClusterChange(1, 1, factor)) == f3),
        (
            "period sequences agree to N=%d" % PERIOD_DEPTH,
            all(period.period_sequence(g_, PERIOD_DEPTH).values == base for g_ in (f2, f3, f1p, f1pp)),
        ),
    ]


def _check_p112():
    cat = constructions.catalog()
    f, fp = cat["p112.f"], cat["p112.fp"]
    out = degeneration.factor_mutation(
        f, 1, laurent.parse("(x+1)/x", f.var_names), laurent.parse("x+1", f.var_names)
    )
    sc = degeneration.weighted_plane_112()
    mutated = degeneration.mutate_polytope(sc.delta, sc.cosection, sc.decomposition)
    return [
        ("factored pivot step reproduces the mutated model", out == fp),
        ("its Newton polytope is the derived quadrilateral", polytope.newton_polytope(fp) == sc.expected),
        ("polytope mutation gives the same quadrilateral", mutated == polytope.newton_polytope(fp)),
        ("period sequences agree to N=%d" % PERIOD_DEPTH, period.periods_equal(f, fp, PERIOD_DEPTH)),
    ]


def _check_p114():
    cat = constructions.catalog()
    f = cat["p114.f"]
    sc = degeneration.weighted_plane_114()
    out = degeneration.mutate_polytope(sc.delta, sc.cosection, sc.decomposition)
    g, back = constructions.galkin_mutate(f, MarkovTriple(1, 1, 2), 2)
    standard = polytope.convex_hull([(1, 0), (0, 1), (-1, -1)])
    return [
        ("polytope mutation gives the pinned triangle", out == sc.expected),
        ("the result is lattice equivalent to the plane triangle", polytope.lattice_equivalent(out, standard) is not None),
        ("weighted step down ends at the plane model", back == MarkovTriple(1, 1, 1)
         and mutation.equivalent_up_to_toric(g, cat["p2.f"]) is not None),
        (
            "polynomial and polytope mutations agree up to lattice maps",
            polytope.lattice_equivalent(polytope.newton_polytope(g), out) is not None,
        ),
    ]


def _check_p2():
    steps = _p2_chain(3)[1:]
    return [
        ("chain visits (1,1,2), (1,2,5), (1,5,13)", [s["triple"] for s in steps] == [[1, 1, 2], [1, 2, 5], [1, 5, 13]]),
        ("every Newton triangle has the squared weights", all(s["weights_ok"] for s in steps)),
        ("period sequences agree to N=%d" % CHAIN_PERIOD_DEPTH, all(s["periods_equal"] for s in steps)),
    ]


CATALOG_CHECKS = {
    "quadric3": _check_quadric3,
    "cubic3": _check_cubic3,
    "cubic4": _check_cubic4,
    "p3": _check_p3,
    "p112": _check_p112,
    "p114": _check_p114,
    "p2": _check_p2,
}


def cmd_catalog(args):
    if args.all:
        names = sorted(CATALOG_CHECKS)
    elif args.name:
        if args.name not in CATALOG_CHECKS:
            raise ValueError("unknown example %r; choose from %s" % (args.name, ", ".join(sorted(CATALOG_CHECKS))))
        names = [args.name]
    else:
        raise ValueError("give an example name or --all")
    examples = {}
    all_ok = True
    for name in names:
        checks = CATALOG_CHECKS[name]()
        ok = all(flag for _label, flag in checks)
        all_ok = all_ok and ok
        examples[name] = {
            "ok": ok,
            "checks": [{"check": label, "ok": flag} for label, flag in checks],
        }
    payload = {"examples": examples, "ok": all_ok}
    if not all_ok:
        return CommandResult("fail", payload, ["some catalog checks failed"], exit_code=2)
    return CommandResult("ok", payload)


# ------------------------------------------------------------------ wiring


def _add_common(p):
    # also accepted after the subcommand; SUPPRESS keeps a value given
    # before the subcommand from being reset to a default
    p.add_argument("--emit", choices=("json", "text"), default=argparse.SUPPRESS, help="output style")
    p.add_argument(
        "--float",
        dest="float_shadow",
        action="store_true",
        default=argparse.SUPPRESS,
        help="add decimal shadows of rational values",
    )


@functools.lru_cache(maxsize=1)
def build_parser():
    # argparse gives every parse_args call a fresh Namespace, so one parser
    # serves every call in the process
    parser = _ArgumentParser(prog="toriclg", description=__doc__.splitlines()[0])
    parser.add_argument("--emit", choices=("json", "text"), default="json", help="output style")
    parser.add_argument(
        "--float", dest="float_shadow", action="store_true", help="add decimal shadows of rational values"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("period", help="constant-term period sequence")
    p.add_argument("poly", help="Laurent expression, or - for stdin")
    p.add_argument("--n", type=int, default=PERIOD_DEPTH, help="last index to compute")
    _add_common(p)
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("mutate", help="replay a mutation trace")
    p.add_argument("poly", help="start polynomial, or - for stdin")
    p.add_argument("--trace", required=True, help="JSON file with the step list")
    _add_common(p)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("catalog", help="run the pinned example suite")
    p.add_argument("name", nargs="?", help="example name")
    p.add_argument("--all", action="store_true", help="run every example")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("newton", help="Newton polytope of an expression")
    p.add_argument("poly", help="Laurent expression, or - for stdin")
    _add_common(p)
    p.set_defaults(func=cmd_newton)

    p = sub.add_parser("equiv", help="find a toric change between two polynomials")
    p.add_argument("first")
    p.add_argument("second")
    _add_common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("hori-vafa", help="model for a complete intersection")
    p.add_argument("--N", type=int, required=True, help="ambient projective dimension")
    p.add_argument("--degrees", type=int, nargs="*", default=[], help="hypersurface degrees")
    _add_common(p)
    p.set_defaults(func=cmd_hori_vafa)

    p = sub.add_parser("markov", help="triples within a transform depth")
    p.add_argument("--depth", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("p2-chain", help="weighted-plane mutation chain from the basic model")
    p.add_argument("--depth", type=int, default=3, help="number of mutation steps")
    _add_common(p)
    p.set_defaults(func=cmd_p2_chain)

    p = sub.add_parser("iv-mutate", help="polytope mutation from a JSON description")
    p.add_argument("data", help="JSON file with polytope, r, s_matrix, C1, C2, optional expected")
    _add_common(p)
    p.set_defaults(func=cmd_iv_mutate)

    p = sub.add_parser("verify-minkowski", help="check or search a Minkowski presentation")
    p.add_argument("--poly", required=True, help="Laurent expression, or - for stdin")
    p.add_argument("--presentation", help="JSON presentation file; searched when absent")
    p.add_argument("--partial-ok", action="store_true", help="accept 2-skeleton-only results")
    _add_common(p)
    p.set_defaults(func=cmd_verify_minkowski)

    return parser


def _run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        try:
            result = args.func(args)
        except DomainError as exc:
            result = CommandResult(
                "fail",
                {"error": type(exc).__name__, "message": str(exc)},
                ["command failed: %s" % exc],
                exit_code=exc.exit_code,
            )
        text = _render(result, args)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    sys.stdout.write(text)
    return 0 if result.status == "ok" else result.exit_code or 2


def main(argv=None):
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # nothing reads stdout any more; devnull keeps the exit flush from failing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
