"""Batch command-line front end with deterministic JSON output.

Exit status: 0 on success or a passing verification, 1 on a verification
failure (the JSON carries a witness), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import CapacityError

_SAFE = 1 << 53


def _jsonable(value):
    """Ints beyond the 53-bit safe range become decimal strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _SAFE else value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(payload, status=0):
    sys.stdout.write(json.dumps(_jsonable(payload)) + "\n")
    return status


# the complexes on n marks have about n^3 2^(n-3) simplices, and --orbits
# normalises every one of a dimension; at this cap the slowest accepted call,
# cr n = 9 --homology --orbits 3, takes about 0.6 s for one CLI call (median
# of 5, 0.55-0.8 s; 2 CPUs, Python 3.11.7)
_COMPLEX_MARK_LIMIT = 9


def _cmd_complex(args):
    from . import ratios

    # family l on n marks is built as cr(n + 1)
    marks = args.n + 1 if args.family == "l" else args.n
    if marks > _COMPLEX_MARK_LIMIT:
        raise CapacityError(
            "ratio complexes capped at %d marks (n, or n + 1 for family l; "
            "the slowest accepted call, cr n = 9 --homology --orbits 3, takes "
            "about 0.6 s), got %d" % (_COMPLEX_MARK_LIMIT, marks))
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
                "representative": [[v.kind, *v.indices] for v in rep],
                "size": size,
            }
            for rep, size in decomposition
        ]
    return _emit(payload)


# canonical_form costs up to about n L^2 (walks across the whole factor
# list) plus n^2 L (up to n(n-1)/2 crossings moved per step) for L letters
# on n strands; at this cap the slowest words measured take about 3 s
# each (2 CPUs, Python 3.11.7).  An empty word counts as one letter, since
# canonical_form builds permutations of length n before reading any
_WORD_WORK_LIMIT = 10 ** 7


def _cmd_braid_equal(args):
    from . import braid

    lhs = braid.BraidWord.parse(args.n, args.lhs)
    rhs = braid.BraidWord.parse(args.n, args.rhs)
    for w in (lhs, rhs):
        n, length = w.n, len(w.letters) or 1
        if n * length * (n + length) > _WORD_WORK_LIMIT:
            raise CapacityError(
                "braid words capped at n * L * (n + L) <= %d (n strands, L "
                "letters; the slowest measured take about 3 s), got n = %d,"
                " L = %d" % (_WORD_WORK_LIMIT, n, length))
    cl, cr = braid.canonical_form(lhs), braid.canonical_form(rhs)
    equal = cl == cr
    payload = {"n": args.n, "equal": equal}
    if not equal:
        payload["witness"] = {
            "lhs_canonical": {"infimum": cl.infimum,
                              "factors": [list(f) for f in cl.factors]},
            "rhs_canonical": {"infimum": cr.infimum,
                              "factors": [list(f) for f in cr.factors]},
        }
    return _emit(payload, 0 if equal else 1)


def _hom_fields(c):
    """A search_homs class entry as emitted: the generator images, then
    the class properties."""
    return {
        "images": [list(im.images) for im in c["hom"].images],
        "cyclic": c["cyclic"],
        "transitive": c["transitive"],
        "surjective": c["surjective"],
        "image_order": c["image_order"],
    }


def _cmd_braid_search(args):
    from . import braid

    classes = braid.search_homs(args.n, args.k)
    return _emit({"n": args.n, "k": args.k,
                  "classes": [_hom_fields(c) for c in classes]})


def _cmd_braid_gallery(args):
    from . import braid

    h = braid.standard_gallery(args.name, n=args.n, r=args.r,
                               x=args.x, y=args.y)
    return _emit({"name": args.name, "n": h.n, "k": h.k,
                  **_hom_fields(braid.hom_class(h))})


# the sampled gallery checks take time linear in the trial count; at this
# cap the slowest, feler9, takes about 0.18 s for one CLI call (medians of 5
# in six runs: 0.14 to 0.20 s), ferrari 0.13 to 0.19 s, tame-eisenstein
# 0.13 to 0.19 s, covering 0.11 to 0.15 s and the symbolic checks 0.07 to
# 0.11 s (2 CPUs, Python 3.11.7)
_TRIALS_LIMIT = 2000


def _cmd_gallery_verify(args):
    import random

    from . import morphisms

    if args.trials > _TRIALS_LIMIT:
        raise CapacityError(
            "gallery-verify capped at %d trials (feler9, the slowest, "
            "takes about 0.18 s at the cap), got %d"
            % (_TRIALS_LIMIT, args.trials))
    rng = random.Random(args.seed)
    check = morphisms.GALLERY_CHECKS[args.name]
    report = check(args.trials, rng, args.symbolic)
    return _emit({"name": args.name, **report}, 0 if report["pass"] else 1)


# disc expands the discriminant symbolically; n = 7 (1103 terms) takes about
# 0.5 s for one CLI call in either kind (medians of 5: 0.54 s monic, 0.44 s
# projective), and monic n = 8 about 14 s in-process (2 CPUs, Python 3.11.7)
_DISC_DEGREE_LIMIT = 7


def _cmd_disc(args):
    from . import polyring

    if args.n > _DISC_DEGREE_LIMIT:
        raise CapacityError(
            "symbolic discriminants capped at n = %d (n = 7 takes about "
            "0.5 s, n = 8 about 14 s), got n = %d"
            % (_DISC_DEGREE_LIMIT, args.n))
    if args.projective:
        poly = polyring.discriminant_projective(args.n)
        kind = "projective"
    else:
        poly = polyring.discriminant_monic(args.n)
        kind = "monic"
    return _emit({"n": args.n, "kind": kind, "terms": poly.to_json_terms()})


def _cmd_abc(args):
    from . import identities

    report = identities.verify_abc(args.n, args.bound)
    return _emit(report, 0 if report["pass"] else 1)


def _at_least(low):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (low, value))
        return value
    return integer


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
    p.add_argument("--orbits", type=_at_least(0), default=None, metavar="M")
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("braid-equal", help="decide equality of braid words")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=_cmd_braid_equal)

    p = sub.add_parser("braid-search",
                       help="classify homomorphisms to a symmetric group")
    p.add_argument("--n", type=_at_least(2), required=True)
    p.add_argument("--k", type=_at_least(1), required=True)
    p.set_defaults(func=_cmd_braid_search)

    p = sub.add_parser("braid-gallery", help="named homomorphisms")
    p.add_argument("--name", required=True,
                   choices=("mu", "nu6", "nu41", "nu42", "nu43",
                            "phi1", "phi2", "phi3", "phixy"))
    p.add_argument("--n", type=_at_least(2), default=None)
    p.add_argument("--r", type=_at_least(1), default=None)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--y", type=int, default=None)
    p.set_defaults(func=_cmd_braid_gallery)

    p = sub.add_parser("gallery-verify", help="verify a gallery identity")
    # sorted(morphisms.GALLERY_CHECKS), spelled out so that parsing does
    # not import morphisms
    p.add_argument("--name", required=True,
                   choices=("cayley", "covering", "eisenstein", "feler6",
                            "feler9", "ferrari", "model", "tame-eisenstein"))
    p.add_argument("--trials", type=_at_least(1), default=20)
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
    except (ValueError, CapacityError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
