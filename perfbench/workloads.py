"""The four workloads: fixed lists of ``python -m confspace`` invocations.

Each workload is built from the workload seed alone.  Only ``words`` and the
sampled gallery checks of ``discriminants`` depend on the seed; everything
else is a fixed input whose stdout digest was recorded once (expected.json).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED = json.loads(
    (Path(__file__).with_name("expected.json")).read_text())


@dataclass(frozen=True)
class Invocation:
    """One CLI call and what its output must satisfy.

    ``expect`` holds the facts ``checks.check`` verifies: the exit status
    and, per verb, known values (Betti numbers, the braid verdict, ...).
    """

    argv: tuple
    expect: dict = field(default_factory=dict)

    @property
    def verb(self):
        return self.argv[0]

    @property
    def key(self):
        return " ".join(self.argv)


def _fixed(argv, **expect):
    """An invocation with a fixed input: its stdout digest is also checked."""
    argv = tuple(argv.split())
    expect.setdefault("status", 0)
    expect["sha256"] = EXPECTED["sha256"][" ".join(argv)]
    return Invocation(argv, expect)


# ---------------------------------------------------------------------------
# complexes: ratios + homology
# ---------------------------------------------------------------------------


def complexes(seed):
    """The only workload that runs ``smith_diagonal``; cr n=7 dominates."""
    del seed  # every input is fixed
    return [
        _fixed("complex --n 7 --family cr --homology", betti=[1, 421, 0, 0],
               chi=-420),
        _fixed("complex --n 5 --family cr --homology", betti=[1, 31]),
        _fixed("complex --n 6 --family sr --homology"),
        _fixed("complex --n 8 --family cr"),
        _fixed("complex --n 7 --family l"),
        _fixed("complex --n 7 --family sr --orbits 3"),
        _fixed("abc --n 6 --bound 2", abc_pass=True),
    ]


# ---------------------------------------------------------------------------
# discriminants: polyring + morphisms
# ---------------------------------------------------------------------------

GALLERY = ("cayley", "covering", "eisenstein", "feler6", "feler9", "ferrari",
           "model", "tame-eisenstein")


def discriminants(seed):
    """Symbolic Bareiss and ``exact_divide`` (``disc``) next to the integer
    ``resultant_int``/``discriminant_int`` path (feler9 --symbolic)."""
    out = [
        _fixed("disc --n 6", disc_n=6, disc_kind="monic"),
        _fixed("disc --n 5 --projective", disc_n=5, disc_kind="projective"),
        _fixed("gallery-verify --name feler9 --symbolic", gallery_pass=True),
    ]
    for name in GALLERY:
        out.append(Invocation(
            ("gallery-verify", "--name", name, "--seed", str(seed)),
            {"status": 0, "gallery_pass": True}))
    return out


# ---------------------------------------------------------------------------
# words: the braid word problem on seeded pairs
# ---------------------------------------------------------------------------

# (strands, share of negative letters, word length); the mixed kinds cost
# about the same, 0.15 s of canonical_form per word on the reference machine.
# Counted in permutation products, the work of these twelve pairs varies by
# about 5% (quartile spread) between seeds.
WORD_KINDS = ((4, 0.0, 200), (6, 0.0, 200), (8, 0.0, 200),
              (4, 0.5, 140), (6, 0.5, 140), (8, 0.5, 100))
WORD_REPEATS = 1
# one long equal pair, the same for every seed (about 7 s): the slowest
# invocation of a pass, so slowest_s follows the long-word cost rather than
# the largest of many short calls, which is mostly timing noise
LONG_PAIR = (6, 0.5, 480)
LONG_PAIR_SEED = 0


def random_word(rng, n, length, neg_share):
    """``length`` letters on ``n`` strands, exactly round(neg_share*length)
    of them negative."""
    letters = [rng.randint(1, n - 1) for _ in range(length)]
    for i in rng.sample(range(length), round(neg_share * length)):
        letters[i] = -letters[i]
    return letters


def rewrite(rng, letters, n, moves):
    """Apply ``moves`` random moves that preserve the braid: insert a
    cancelling pair, delete one, commute distant generators, or apply the
    braid relation s_i s_j s_i = s_j s_i s_j (|i - j| = 1, equal signs)."""
    w = list(letters)
    for _ in range(moves):
        p = rng.randrange(len(w) + 1)
        a = w[p] if p < len(w) else None
        b = w[p + 1] if p + 1 < len(w) else None
        c = w[p + 2] if p + 2 < len(w) else None
        if b is not None and a == -b:
            del w[p:p + 2]
        elif b is not None and abs(abs(a) - abs(b)) >= 2:
            w[p], w[p + 1] = b, a
        elif (c is not None and a == c and abs(abs(a) - abs(b)) == 1
              and (a > 0) == (b > 0)):
            w[p:p + 3] = [b, a, b]
        else:
            g = rng.randint(1, n - 1) * rng.choice((1, -1))
            w[p:p] = [g, -g]
    return w


def make_pair(rng, n, neg_share, length, equal):
    """An equal pair (a rewrite of one word) or an unequal one (one letter
    of the rewrite sign-flipped, which moves the exponent sum by 2)."""
    lhs = random_word(rng, n, length, neg_share)
    # a cancelling pair brings a negative letter, so all-positive words are
    # rewritten by the positive relations only
    moves = length // 4
    if neg_share:
        rhs = rewrite(rng, lhs, n, moves)
    else:
        rhs = positive_rewrite(rng, lhs, moves)
    if not equal:
        i = rng.randrange(len(rhs))
        rhs[i] = -rhs[i]
    return {"n": n, "lhs": lhs, "rhs": rhs, "equal": equal}


def word_pairs(seed):
    """Half equal and half unequal pairs of every kind, then the long pair."""
    rng = random.Random(seed)
    pairs = [make_pair(rng, n, neg_share, length, equal)
             for _, (n, neg_share, length), equal in itertools.product(
                 range(WORD_REPEATS), WORD_KINDS, (True, False))]
    pairs.append(make_pair(random.Random(LONG_PAIR_SEED), *LONG_PAIR, True))
    return pairs


def positive_rewrite(rng, letters, moves):
    """Braid and commutation moves only, so the word stays positive."""
    w = list(letters)
    for _ in range(moves):
        p = rng.randrange(len(w) - 2)
        a, b, c = w[p], w[p + 1], w[p + 2]
        if abs(a - b) >= 2:
            w[p], w[p + 1] = b, a
        elif a == c and abs(a - b) == 1:
            w[p:p + 3] = [b, a, b]
    return w


def pair_record(pair):
    """n, lengths and negative share of one generated pair."""
    both = pair["lhs"] + pair["rhs"]
    return {"n": pair["n"], "lhs_len": len(pair["lhs"]),
            "rhs_len": len(pair["rhs"]), "equal": pair["equal"],
            "neg_share": sum(g < 0 for g in both) / len(both)}


def words(seed):
    """``canonical_form`` does almost all the work; negative letters trigger
    the half-twist conjugation sweep."""
    out = []
    for pair in word_pairs(seed):
        argv = ("braid-equal", "--n", str(pair["n"]),
                "--lhs", " ".join(map(str, pair["lhs"])),
                "--rhs", " ".join(map(str, pair["rhs"])))
        out.append(Invocation(argv, {
            "status": 0 if pair["equal"] else 1,
            "equal": pair["equal"],
            "lhs": pair["lhs"], "rhs": pair["rhs"],
            "pair": pair_record(pair),
        }))
    return out


# ---------------------------------------------------------------------------
# homs: homomorphisms B_n -> S_k
# ---------------------------------------------------------------------------


def homs(seed):
    """``Perm`` products, closures and ``are_conjugate``; never
    ``canonical_form``."""
    del seed  # every input is fixed
    out = [
        _fixed("braid-search --n 5 --k 4"),
        _fixed("braid-search --n 6 --k 6", noncyclic_transitive=2),
        _fixed("braid-search --n 7 --k 6"),
        _fixed("braid-search --n 6 --k 7"),
        _fixed("braid-gallery --name mu --n 6"),
    ]
    for name in ("nu6", "nu41", "nu42", "nu43"):
        out.append(_fixed("braid-gallery --name %s" % name))
    for name in ("phi1", "phi2", "phi3"):
        out.append(_fixed("braid-gallery --name %s --n 4" % name))
    out.append(_fixed("braid-gallery --name phixy --n 5 --r 3 --x 1 --y 2"))
    return out


WORKLOADS = {
    "complexes": complexes,
    "discriminants": discriminants,
    "words": words,
    "homs": homs,
}
