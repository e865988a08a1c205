"""Output checks for one invocation; a failed check counts in failed_frac.

Every invocation's exit status is checked.  A fixed input also has its
stdout digest checked against expected.json.  On top of that each verb has
facts that hold whatever the input: Euler characteristic against the Betti
numbers, degree and weight of discriminant terms, the gallery verdict, the
braid verdict the word generator built in, and a witness consistent with
the exponent sums of the two words.
"""

from __future__ import annotations

import hashlib
import json


def check(inv, status, stdout):
    """None if the output of ``inv`` is right, else the reason it is not."""
    expect = inv.expect
    if status != expect["status"]:
        return "exit status %s, expected %s" % (status, expect["status"])
    if "sha256" in expect and hashlib.sha256(stdout).hexdigest() != expect["sha256"]:
        return "stdout digest differs from the recorded one"
    lines = stdout.decode().splitlines()
    if len(lines) != 1:
        return "expected one line of JSON, got %d lines" % len(lines)
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return "stdout is not JSON: %s" % exc
    verb_check = _VERBS.get(inv.verb)
    return verb_check(payload, expect) if verb_check else None


def _complex(payload, expect):
    hom = payload.get("homology")
    if hom is not None:
        alternating = sum(b if k % 2 == 0 else -b
                          for k, b in enumerate(hom["betti"]))
        if alternating != hom["chi"] or hom["chi"] != payload["chi"]:
            return "alternating Betti sum %d, chi %d" % (alternating, hom["chi"])
        if "betti" in expect and hom["betti"] != expect["betti"]:
            return "betti %s, expected %s" % (hom["betti"], expect["betti"])
    elif "betti" in expect:
        return "no homology in the payload"
    if "chi" in expect and payload["chi"] != expect["chi"]:
        return "chi %s, expected %s" % (payload["chi"], expect["chi"])
    return None


def _abc(payload, expect):
    if payload.get("pass") is not expect.get("abc_pass", True):
        return "abc pass is %r" % payload.get("pass")
    return None


def _disc(payload, expect):
    n, kind = expect["disc_n"], expect["disc_kind"]
    if (payload["n"], payload["kind"]) != (n, kind):
        return "disc payload is for n=%s %s" % (payload["n"], payload["kind"])
    if not payload["terms"]:
        return "no terms"
    for coeff, mono in payload["terms"]:
        if int(coeff) == 0:
            return "zero coefficient"
        weight = sum(int(v[1:]) * e for v, e in mono.items())
        if weight != n * (n - 1):
            return "term %s has weight %d, not %d" % (mono, weight, n * (n - 1))
        if kind == "projective" and sum(mono.values()) != 2 * (n - 1):
            return "term %s has degree %d, not %d" % (
                mono, sum(mono.values()), 2 * (n - 1))
    return None


def _gallery_verify(payload, expect):
    if payload.get("pass") is not True:
        return "gallery check %s did not pass" % payload.get("name")
    return None


def _is_perm(images, k):
    return sorted(images) == list(range(1, k + 1))


def _braid_search(payload, expect):
    n, k = payload["n"], payload["k"]
    for c in payload["classes"]:
        if len(c["images"]) != n - 1 or not all(_is_perm(im, k)
                                                for im in c["images"]):
            return "class images are not n-1 permutations of 1..%d" % k
    want = expect.get("noncyclic_transitive")
    if want is not None:
        got = sum(1 for c in payload["classes"]
                  if c["transitive"] and not c["cyclic"])
        if got != want:
            return "%d non-cyclic transitive classes, expected %d" % (got, want)
    return None


def _braid_gallery(payload, expect):
    if not all(_is_perm(im, payload["k"]) for im in payload["images"]):
        return "images are not permutations of 1..%d" % payload["k"]
    return None


def _exponent_sum_of(canonical, n):
    """Exponent sum of a canonical form: the half twist has n(n-1)/2
    crossings and a permutation factor as many as its inversions."""
    crossings = sum(1 for f in canonical["factors"]
                    for i in range(n) for j in range(i + 1, n) if f[i] > f[j])
    return canonical["infimum"] * n * (n - 1) // 2 + crossings


def _braid_equal(payload, expect):
    if payload["equal"] is not expect["equal"]:
        return "verdict equal=%r, built as %r" % (payload["equal"],
                                                  expect["equal"])
    if expect["equal"]:
        return None
    witness = payload.get("witness")
    if witness is None:
        return "unequal verdict without a witness"
    n = payload["n"]
    for side in ("lhs", "rhs"):
        got = _exponent_sum_of(witness[side + "_canonical"], n)
        want = sum(1 if g > 0 else -1 for g in expect[side])
        if got != want:
            return "%s canonical form has exponent sum %d, word has %d" % (
                side, got, want)
    return None


_VERBS = {
    "complex": _complex,
    "abc": _abc,
    "disc": _disc,
    "gallery-verify": _gallery_verify,
    "braid-search": _braid_search,
    "braid-gallery": _braid_gallery,
    "braid-equal": _braid_equal,
}
