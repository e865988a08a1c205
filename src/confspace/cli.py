"""Batch command-line front end with deterministic JSON output.

Exit status: 0 on success or a passing verification, 1 on a verification
failure (the JSON carries a witness), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction

from . import braid, morphisms, ratios
from .polyring import MultiPoly, discriminant_monic, discriminant_projective

_SAFE = 1 << 53


def _jsonable(value):
    """Ints beyond the 53-bit safe range become decimal strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _SAFE else value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(payload, status=0):
    sys.stdout.write(json.dumps(_jsonable(payload)) + "\n")
    return status


def _cmd_complex(args):
    c = ratios.build_complex(args.n, args.family)
    payload = c.to_json()
    payload["dim"] = ratios.complex_dimension(c)
    payload["chi"] = ratios.euler_characteristic(c)
    if args.homology:
        payload["homology"] = ratios.homology_report(c)
    if args.orbits is not None:
        decomposition = ratios.orbit_decomposition(
            args.n, args.family, args.orbits)
        payload["orbits"] = [
            {
                "representative": [[v.kind, *v.indices]
                                   for v in rep.vertices],
                "size": size,
            }
            for rep, size in decomposition
        ]
    return _emit(payload)


def _cmd_braid_equal(args):
    lhs = braid.BraidWord.parse(args.n, args.lhs)
    rhs = braid.BraidWord.parse(args.n, args.rhs)
    equal = braid.words_equal(lhs, rhs)
    payload = {"n": args.n, "equal": equal}
    if not equal:
        cl, cr = braid.canonical_form(lhs), braid.canonical_form(rhs)
        payload["witness"] = {
            "lhs_canonical": {"infimum": cl.infimum,
                              "factors": [list(f) for f in cl.factors]},
            "rhs_canonical": {"infimum": cr.infimum,
                              "factors": [list(f) for f in cr.factors]},
        }
    return _emit(payload, 0 if equal else 1)


def _hom_payload(h):
    payload = {
        "n": h.n,
        "k": h.k,
        "images": [list(im.images) for im in h.images],
    }
    props = braid.hom_properties(h)
    payload["cyclic"] = props["cyclic_image"]
    payload["transitive"] = props["transitive"]
    payload["surjective"] = props["surjective"]
    payload["image_order"] = props["image_order"]
    return payload


def _cmd_braid_search(args):
    classes = braid.search_homs(args.n, args.k)
    payload = {
        "n": args.n,
        "k": args.k,
        "classes": [
            {
                "images": [list(im.images) for im in c["hom"].images],
                "cyclic": c["cyclic"],
                "transitive": c["transitive"],
                "surjective": c["surjective"],
                "image_order": c["image_order"],
            }
            for c in classes
        ],
    }
    return _emit(payload)


def _cmd_braid_gallery(args):
    h = braid.standard_gallery(args.name, n=args.n, r=args.r,
                               x=args.x, y=args.y)
    return _emit({"name": args.name, **_hom_payload(h)})


def _verify_eisenstein():
    e = tuple(MultiPoly.var("z%d" % i) for i in range(4))
    w = morphisms.eisenstein(e)
    ww = morphisms.eisenstein(w)
    disc = morphisms.hesse_cubic_discriminant(e)
    invol = all(ww[i] == disc ** 2 * e[i] for i in range(4))
    disc_cubed = morphisms.hesse_cubic_discriminant(w) == disc ** 3
    return {"pass": invol and disc_cubed, "mode": "symbolic", "trials": 0,
            "witness": None}


def _verify_cayley():
    rel = morphisms.cayley_comparison()
    return {
        "pass": True,
        "mode": "symbolic",
        "trials": 0,
        "witness": None,
        "transform": rel["transform"],
        "scalar": "%d/%d" % (rel["numerator"], rel["denominator"]),
    }


def _verify_tame(trials, rng):
    u, v, den2 = morphisms.tame_determinant_identity()
    det_ok = v.is_zero() and u == den2
    action = morphisms.tame_action_check(trials=trials, rng=rng)
    return {
        "pass": det_ok and action["pass"],
        "mode": "symbolic+numeric",
        "trials": trials,
        "witness": action["witness"],
    }


def _verify_ferrari(trials, rng):
    f1, f2, f3 = morphisms.ferrari_symbolic()
    q = [MultiPoly.var("q%d" % i) for i in range(1, 5)]
    factors_ok = (
        f1 - f2 == 4 * (q[0] - q[1]) * (q[3] - q[2])
        and f1 - f3 == 4 * (q[0] - q[2]) * (q[3] - q[1])
        and f2 - f3 == 4 * (q[1] - q[2]) * (q[3] - q[0])
    )
    for _ in range(trials):
        pts = []
        while len(set(pts)) != 4:
            pts = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                   for _ in range(4)]
        cfg = morphisms.Config(tuple(pts))
        base = set(morphisms.ferrari(cfg).points)
        for sigma in itertools.permutations((1, 2, 3, 4)):
            moved = morphisms.ferrari(morphisms.Config(
                tuple(pts[sigma[i] - 1] for i in range(4))))
            if set(moved.points) != base:
                return {"pass": False, "mode": "symbolic+sampled",
                        "trials": trials, "witness": [str(p) for p in pts]}
    return {"pass": factors_ok, "mode": "symbolic+sampled",
            "trials": trials, "witness": None}


def _verify_feler6():
    lhs, rhs = morphisms.feler_sextic_identity()
    res, rem, power = morphisms.feler_sextic_resultant()
    res_ok = rem.is_constant() and rem.constant_value() != 0 and power > 0
    return {"pass": lhs == rhs and res_ok, "mode": "symbolic", "trials": 0,
            "witness": None, "resultant_power": power}


def _verify_feler9(trials, rng, symbolic):
    if symbolic:
        rep = morphisms.feler_nine_symbolic()
        return {"pass": rep["pass"], "mode": "symbolic",
                "trials": rep.get("points", 0), "witness": rep["witness"]
                if not rep["pass"] else None}
    rep = morphisms.feler_nine_sampled(trials=trials, rng=rng)
    return {"pass": rep["pass"], "mode": "sampled", "trials": rep["trials"],
            "witness": rep["witness"]}


def _verify_covering(trials, rng):
    for n in (3, 4):
        d = discriminant_monic(n)
        zeta = MultiPoly.var("t")
        scaled = d.substitute({
            "w%d" % i: MultiPoly.var("w%d" % i) * zeta ** i
            for i in range(1, n + 1)})
        if scaled != zeta ** (n * (n - 1)) * d:
            return {"pass": False, "mode": "symbolic+sampled",
                    "trials": trials, "witness": {"n": n}}
    for _ in range(trials):
        n = rng.choice((2, 3, 4, 5))
        m = rng.randint(0, 2)
        pts = []
        while len(set(pts)) != n:
            pts = [Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                   for _ in range(n)]
        cfg = morphisms.Config(tuple(pts))
        out = morphisms.covering_point(cfg, m)
        d_in = morphisms.discriminant_value(cfg.points)
        d_out = morphisms.discriminant_value(out.points)
        if d_out != d_in ** (m * n * (n - 1) + 1):
            return {"pass": False, "mode": "symbolic+sampled",
                    "trials": trials, "witness": [str(p) for p in pts]}
    return {"pass": True, "mode": "symbolic+sampled", "trials": trials,
            "witness": None}


def _verify_model():
    from .polyring import discriminant_of

    zeta = MultiPoly.var("c")
    for m in (3, 4):
        for r in (1, 2):
            coeffs = morphisms.model_map("A", m, r, zeta)
            d = discriminant_of(coeffs)
            expected_exp = r * (m - 1)
            terms = d.sorted_terms()
            if len(terms) != 1:
                return {"pass": False, "mode": "symbolic", "trials": 0,
                        "witness": {"m": m, "r": r}}
            mono, coeff = terms[0]
            if dict(mono).get("c", 0) != expected_exp or coeff == 0:
                return {"pass": False, "mode": "symbolic", "trials": 0,
                        "witness": {"m": m, "r": r}}
    b0 = morphisms.model_map("B", 4, 0, zeta)
    ok = b0 == [MultiPoly.one(), MultiPoly.zero(), MultiPoly.zero(),
                -MultiPoly.one(), MultiPoly.zero()]
    return {"pass": ok, "mode": "symbolic", "trials": 0, "witness": None}


_GALLERY = {
    "eisenstein": lambda trials, rng, symbolic: _verify_eisenstein(),
    "cayley": lambda trials, rng, symbolic: _verify_cayley(),
    "tame-eisenstein": lambda trials, rng, symbolic: _verify_tame(trials, rng),
    "ferrari": lambda trials, rng, symbolic: _verify_ferrari(trials, rng),
    "feler6": lambda trials, rng, symbolic: _verify_feler6(),
    "feler9": _verify_feler9,
    "covering": lambda trials, rng, symbolic: _verify_covering(trials, rng),
    "model": lambda trials, rng, symbolic: _verify_model(),
}


def _cmd_gallery_verify(args):
    rng = random.Random(args.seed)
    report = _GALLERY[args.name](args.trials, rng, args.symbolic)
    payload = {"name": args.name, "mode": report["mode"],
               "trials": report["trials"], "pass": report["pass"]}
    if report.get("witness") is not None:
        payload["witness"] = report["witness"]
    for key in ("transform", "scalar", "resultant_power"):
        if key in report:
            payload[key] = report[key]
    return _emit(payload, 0 if report["pass"] else 1)


def _cmd_disc(args):
    cap = 6 if args.projective else 7
    if args.n > cap:
        sys.stderr.write("error: symbolic expansion capped at n = %d\n" % cap)
        return 2
    if args.projective:
        poly = discriminant_projective(args.n)
        kind = "projective"
    else:
        poly = discriminant_monic(args.n)
        kind = "monic"
    return _emit({"n": args.n, "kind": kind, "terms": poly.to_json_terms()})


def _cmd_abc(args):
    report = ratios.verify_abc(args.n, args.bound)
    return _emit(report, 0 if report["pass"] else 1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confspace",
        description="exact verification suite for ratio complexes, braid "
                    "homomorphism classification, and the morphism gallery")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("complex", help="build a ratio complex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("sr", "cr", "l"), required=True)
    p.add_argument("--homology", action="store_true")
    p.add_argument("--orbits", type=int, default=None, metavar="M")
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("braid-equal", help="decide equality of braid words")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=_cmd_braid_equal)

    p = sub.add_parser("braid-search",
                       help="classify homomorphisms to a symmetric group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_braid_search)

    p = sub.add_parser("braid-gallery", help="named homomorphisms")
    p.add_argument("--name", required=True,
                   choices=("mu", "nu6", "nu41", "nu42", "nu43",
                            "phi1", "phi2", "phi3", "phixy"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--y", type=int, default=None)
    p.set_defaults(func=_cmd_braid_gallery)

    p = sub.add_parser("gallery-verify", help="verify a gallery identity")
    p.add_argument("--name", required=True, choices=sorted(_GALLERY))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--symbolic", action="store_true")
    p.set_defaults(func=_cmd_gallery_verify)

    p = sub.add_parser("disc", help="expand a discriminant")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--projective", action="store_true")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("abc", help="three-term product identity search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_abc)

    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ratios.CapacityError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
