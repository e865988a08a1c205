"""Braid words, an exact word-problem decision procedure, and exhaustive
classification of their finite symmetric-group images at small rank.

Words are sequences of nonzero integers: letter g means generator |g| with
sign(g) as exponent.  Equality of braids is decided through the left-greedy
canonical form: a power of the half twist followed by a left-weighted
sequence of permutation factors, which is a complete invariant.

Permutations multiply left-to-right: (p * q) means "apply p, then q".
"""

from __future__ import annotations

import itertools
from math import factorial, lcm, prod

from . import CapacityError, _Value


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------
#
# The kernel works on 0-based image tuples: p[i] is the image of point i.
# Perm is the 1-based view of such a tuple at the public API; constructing
# one from images or cycles validates, arithmetic wraps kernel results
# without re-validating.


def _pmul(p, q):
    return tuple(map(q.__getitem__, p))


def _pinv(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _pid(n):
    return tuple(range(n))


def _pdelta(n):
    return tuple(range(n - 1, -1, -1))


def _ptransp(n, i):
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def _cycles(p):
    """The cycles of an image tuple, each from its smallest point, in order
    of smallest point; fixed points are cycles of length one."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(cyc)
    return out


def _cycle_type(p):
    return tuple(sorted(map(len, _cycles(p)), reverse=True))


def _word_image(gens, letters, k):
    """The image tuple of a word: letter g maps to gens[|g| - 1], inverted
    when g < 0."""
    p = _pid(k)
    for g in letters:
        img = gens[abs(g) - 1]
        p = _pmul(p, img if g > 0 else _pinv(img))
    return p


class Perm(_Value):
    """A permutation of 1..k in one-line image notation (``images``)."""

    __slots__ = ("_t",)  # the 0-based image tuple of the kernel

    def __init__(self, images):
        k = len(images)
        if sorted(images) != list(range(1, k + 1)):
            raise ValueError("not a bijection of 1..%d" % k)
        object.__setattr__(self, "_t", tuple(v - 1 for v in images))

    def __reduce__(self):
        return Perm, (self.images,)

    @property
    def images(self):
        return tuple(v + 1 for v in self._t)

    @property
    def degree(self):
        return len(self._t)

    @classmethod
    def identity(cls, k):
        return _perm(_pid(k))

    @classmethod
    def from_cycles(cls, k, *cycles):
        points = [a for cyc in cycles for a in cyc]
        if len(set(points)) != len(points) or not all(
                1 <= a <= k for a in points):
            raise ValueError("cycle points must be distinct and in 1..%d" % k)
        imgs = list(range(1, k + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                imgs[a - 1] = b
        return cls(tuple(imgs))

    @classmethod
    def transposition(cls, k, i):
        if not 1 <= i < k:
            raise ValueError("transposition index %r outside 1..%d"
                             % (i, k - 1))
        return _perm(_ptransp(k, i - 1))

    def __call__(self, x):
        return self._t[x - 1] + 1

    def __mul__(self, other):
        # apply self first, then other
        return _perm(_pmul(self._t, other._t))

    def inverse(self):
        return _perm(_pinv(self._t))

    def cycles(self):
        return [tuple(x + 1 for x in c) for c in _cycles(self._t)]

    def cycle_type(self):
        return _cycle_type(self._t)

    def order(self):
        return lcm(*map(len, _cycles(self._t)))

    def is_identity(self):
        return self._t == _pid(len(self._t))

    def __repr__(self):
        return "Perm(%s)" % (" ".join(map(str, self.images)))


def _tuple(p):
    """The 0-based image tuple of a Perm."""
    return p._t


def _perm(t):
    """A Perm over a 0-based image tuple the kernel produced, unchecked."""
    p = object.__new__(Perm)
    object.__setattr__(p, "_t", t)
    return p


def conjugacy_class_reps(k):
    """One permutation per cycle type of degree k, deterministic."""
    reps = []
    for part in _partitions(k):
        start = 1
        cycles = []
        for size in part:
            cycles.append(tuple(range(start, start + size)))
            start += size
        reps.append(Perm.from_cycles(k, *cycles))
    return reps


def _partitions(k, largest=None):
    if largest is None:
        largest = k
    if k == 0:
        return [()]
    out = []
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            out.append((first,) + rest)
    return out


# ---------------------------------------------------------------------------
# braid words
# ---------------------------------------------------------------------------


class BraidWord(_Value):
    """A word in the generators of the braid group on ``n`` strands."""

    __slots__ = ("n", "letters")

    def __init__(self, n, letters):
        if n < 2:
            raise ValueError("need at least two strands")
        for g in letters:
            if g == 0 or abs(g) > n - 1:
                raise ValueError("letter %r out of range for %d strands"
                                 % (g, n))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def parse(cls, n, text):
        letters = tuple(int(tok) for tok in text.split())
        return cls(n, letters)

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("mismatched strand counts")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self):
        return BraidWord(self.n, tuple(-g for g in reversed(self.letters)))


def word(n, *letters):
    return BraidWord(n, tuple(letters))


def alpha_word(n):
    """sigma_1 sigma_2 ... sigma_(n-1)."""
    return BraidWord(n, tuple(range(1, n)))


def sphere_kernel_word(n):
    """sigma_1 ... sigma_(n-1) sigma_(n-1) ... sigma_1 (a pure braid)."""
    up = tuple(range(1, n))
    return BraidWord(n, up + up[::-1])


def full_twist_word(n):
    """(sigma_1 ... sigma_(n-1))^n, generating the center."""
    return BraidWord(n, tuple(range(1, n)) * n)


def mu_image(w):
    """Image under the standard projection sending generator i to (i, i+1)."""
    gens = [_ptransp(w.n, i) for i in range(w.n - 1)]
    return _perm(_word_image(gens, w.letters, w.n))


def exponent_sum(w):
    """Sum of letter signs; invariant under all defining relations."""
    return sum(1 if g > 0 else -1 for g in w.letters)


# ---------------------------------------------------------------------------
# left-greedy canonical form
# ---------------------------------------------------------------------------
#
# A permutation factor is an image tuple p with p[i] the final position of
# the strand starting at i.  Products read left to right.  The generators a
# positive word for p can begin with are its descents {i : p[i] > p[i + 1]}.


def _tau(p):
    """Conjugate of a factor by the half twist: delta * p * delta."""
    top = len(p) - 1
    return tuple(top - v for v in reversed(p))


def _left_weight(a, b):
    """(a u, u^-1 b) for u the left gcd of a^-1 delta and b, or None when u
    is trivial, i.e. (a, b) is left-weighted.  a^-1 delta descends where
    a^-1 ascends; taking generator i off the front of a factor swaps its
    positions i and i + 1, which can only make a descent at i - 1 or i + 1."""
    ainv, b = list(_pinv(a)), list(b)
    moved, i = False, 0
    while i < len(b) - 1:
        if ainv[i] < ainv[i + 1] and b[i] > b[i + 1]:
            ainv[i], ainv[i + 1] = ainv[i + 1], ainv[i]
            b[i], b[i + 1] = b[i + 1], b[i]
            moved, i = True, max(i - 1, 0)
        else:
            i += 1
    return (_pinv(ainv), tuple(b)) if moved else None


class CanonicalBraid(_Value):
    """Left-weighted canonical form: infimum power of the half twist plus a
    sequence of permutation factors, none trivial, none the half twist."""

    __slots__ = ("n", "infimum", "factors")

    def __init__(self, n, infimum, factors):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "infimum", infimum)
        object.__setattr__(self, "factors", tuple(factors))

    def __repr__(self):
        return "CanonicalBraid(n=%d, inf=%d, len=%d)" % (
            self.n, self.infimum, len(self.factors))


def canonical_form(w):
    """Left-greedy canonical form of a braid word in one pass (Epstein et
    al., Word Processing in Groups, ch. 9; Elrifai-Morton 1994).

    The factors stay left-weighted, never trivial or delta, and stand for
    their half-twist conjugates while ``flip`` is set.  A negative letter
    s_i^-1 is delta^-1 (delta s_i^-1); delta^-1 passes to the front, so the
    infimum drops and ``flip`` toggles.  Each letter's factor is appended
    and pairs are left-weighted right to left until one already is; a left
    factor that becomes delta passes to the front the same way, and only
    the factors after it are conjugated back."""
    n = w.n
    if n == 2:  # s_1 is the half twist itself
        return CanonicalBraid(n, exponent_sum(w), ())
    delta, ident = _pdelta(n), _pid(n)
    inf, flip, fs = 0, False, []
    for g in w.letters:
        # s_i is the identity with positions i, i+1 swapped, delta s_i^-1 is
        # delta with n-2-i, n-1-i swapped; a factor is stored conjugated
        # (i -> n-2-i) if flip is set after its letter, so both swap i, i+1
        # mirrored exactly when flip is set before it (s_i^-1 toggles flip)
        i = n - 1 - abs(g) if flip else abs(g) - 1
        s = list(ident if g > 0 else delta)
        s[i], s[i + 1] = s[i + 1], s[i]
        if g < 0:
            inf, flip = inf - 1, not flip
        fs.append(tuple(s))
        j = len(fs) - 1
        while j and (pair := _left_weight(fs[j - 1], fs[j])):
            a, fs[j] = pair
            if a == delta:
                del fs[j - 1]
                inf, flip = inf + 1, not flip
                fs[j - 1:] = map(_tau, fs[j - 1:])
                break
            fs[j - 1] = a
            j -= 1
        if fs and fs[-1] == ident:  # the new factor was absorbed
            fs.pop()
    return CanonicalBraid(n, inf, map(_tau, fs) if flip else fs)


def words_equal(w1, w2):
    """Exact word-problem decision via canonical forms."""
    if w1.n != w2.n:
        raise ValueError("mismatched strand counts")
    return canonical_form(w1) == canonical_form(w2)


def gorin_words(n):
    """Both sides of the commutator identity relating generators 1..3."""
    if n < 4:
        raise ValueError("needs at least four strands")
    g1 = [3, -1]
    g2 = [1, -2]
    inv = lambda w: [-x for x in reversed(w)]
    commutator = inv(g1) + inv(g2) + g1 + g2
    lhs = BraidWord(n, tuple(g1))
    rhs = BraidWord(n, tuple([-2, -1] + commutator + [1, 2]))
    return lhs, rhs


# ---------------------------------------------------------------------------
# homomorphisms to symmetric groups
# ---------------------------------------------------------------------------

ARTIN = "artin"
SPHERE = "sphere"


class SymHom(_Value):
    """A homomorphism from the n-strand group to S(k), by generator images
    (``images`` holds those of generators 1..n-1)."""

    __slots__ = ("n", "k", "images", "presentation")

    def __init__(self, n, k, images, presentation=ARTIN):
        _check_sizes(n, k)
        bad = check_relations(images, n, k, presentation)
        if bad is not None:
            raise ValueError("defining relation violated: %s" % (bad,))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "presentation", presentation)

    def apply(self, w):
        if w.n != self.n:
            raise ValueError("mismatched strand counts")
        gens = [_tuple(im) for im in self.images]
        return _perm(_word_image(gens, w.letters, self.k))


def _check_sizes(n, k):
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 strands and degree k >= 1, got "
                         "n = %d, k = %d" % (n, k))


def _hom(n, k, images):
    """The SymHom with the generator image tuples _hom_images built, its
    relations unchecked (as _perm for tuples): conjugation has carried
    those of image 1 to all the others."""
    _check_sizes(n, k)
    h = object.__new__(SymHom)
    for name, value in zip(SymHom.__slots__,
                           (n, k, tuple(map(_perm, images)), ARTIN)):
        object.__setattr__(h, name, value)
    return h


def check_relations(images, n, k, presentation=ARTIN):
    """First violated defining relation, or None if all hold."""
    if len(images) != n - 1:
        raise ValueError("need %d generator images" % (n - 1))
    for im in images:
        if im.degree != k:
            raise ValueError("images must have degree %d" % k)
    gens = [_tuple(im) for im in images]
    for i in range(n - 2):
        a, b = gens[i], gens[i + 1]
        if _pmul(_pmul(a, b), a) != _pmul(_pmul(b, a), b):
            return ("braid", i + 1, i + 2)
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            if _pmul(gens[i], gens[j]) != _pmul(gens[j], gens[i]):
                return ("commute", i + 1, j + 1)
    if presentation == SPHERE:
        # the letters of sphere_kernel_word(n)
        letters = [*range(1, n), *range(n - 1, 0, -1)]
        if _word_image(gens, letters, k) != _pid(k):
            return ("sphere",)
    return None


def verify_sym_hom(images, n, k, presentation=ARTIN):
    """The homomorphism if all relations hold, else None."""
    if check_relations(images, n, k, presentation) is not None:
        return None
    return SymHom(n, k, tuple(images), presentation)


def hom_from_pair(s, a, n, k):
    """Homomorphism determined by the images of generator 1 and of the
    descending product of all generators; None if inconsistent."""
    if s.degree != k or a.degree != k:
        raise ValueError("images must have degree %d" % k)
    images = _hom_images(_tuple(s), _tuple(a), n, {})
    if images is None:
        return None
    return _hom(n, k, images)


def is_transitive(h):
    """Whether the generator images act with a single orbit on 1..k."""
    return len(_bfs_code([_tuple(im) for im in h.images], 0)[1]) == h.k


def hom_properties(h):
    """Transitivity, image order, cyclicity (see _all_equal) and
    surjectivity, from one stabiliser chain (see _basic_orbits)."""
    gens = [_tuple(im) for im in h.images]
    orbits = _basic_orbits(gens, h.k)
    order = prod(map(len, orbits))
    return {
        "transitive": len(orbits[0]) == h.k,
        "image_order": order,
        "cyclic_image": _all_equal(gens),
        "surjective": order == factorial(h.k),
    }


def _basic_orbits(gens, k):
    """The basic orbits, base 0, 1, ..., k - 1, of a stabiliser chain of the
    group the image tuples generate, by Schreier-Sims (Sims 1970; Seress,
    Permutation Group Algorithms, ch. 4).  A generator is filed at its
    first moved point; level i maps each point x of the orbit of i under
    the generators filed at levels >= i to an element sending i to x.  The
    group order is the product of the orbit sizes."""
    filed = [(next(x for x in range(k) if g[x] != x), g) for g in gens
             if g != _pid(k)]

    def strong(i):
        return [g for j, g in filed if j >= i]

    def basic_orbit(i):
        level, points, orbit = strong(i), [i], {i: _pid(k)}
        for x in points:
            for g in level:
                if g[x] not in orbit:
                    orbit[g[x]] = _pmul(orbit[x], g)
                    points.append(g[x])
        return orbit

    def sift(p, i):
        # where p, fixing the points before i, leaves the chain, k if never
        while i < k and p[i] in orbits[i]:
            if p[i] != i:
                p = _pmul(p, _pinv(orbits[i][p[i]]))
            i += 1
        return i, p

    # levels are checked from the last up: a Schreier generator of level i
    # that does not sift is filed where sifting stopped, the orbits from
    # level i + 1 to there are rebuilt, and checking restarts there
    orbits = [basic_orbit(i) for i in range(k)]
    i = k - 1
    while i >= 0:
        orbit, level = orbits[i], strong(i)
        for j, p in (sift(_pmul(_pmul(u, g), _pinv(orbit[g[x]])), i + 1)
                     for x, u in orbit.items() for g in level):
            if j < k:
                filed.append((j, p))
                for m in range(i + 1, j + 1):
                    orbits[m] = basic_orbit(m)
                i = j
                break
        else:
            i -= 1
    return orbits


def _braids(s, t):
    """Whether s * t * s == t * s * t, compared point by point up to the
    first point where they differ."""
    for x in range(len(s)):
        if s[t[s[x]]] != t[s[t[x]]]:
            return False
    return True


def _hom_images(s, a, n, braids):
    """Generator images of the homomorphism sending generator 1 to s and
    the descending product to a, or None if the pair is inconsistent.

    Image i + 1 is a * (image i) * a^-1.  Conjugation by a carries the
    relation between images i and j to the one between images i + 1 and
    j + 1, so the relations of image 1 with each later image imply all the
    others.  Images are built one at a time and the first failing relation
    ends the candidate.  The braid relation of image 1 with image 2 depends
    on image 2 alone, so ``braids`` memoizes it for this s: a dict from
    image 2 to whether the relation holds.
    """
    ainv = _pinv(a)
    images = [s]
    t = prod = s
    for j in range(1, n - 1):
        t = _pmul(_pmul(a, t), ainv)
        if j == 1:
            ok = braids.get(t)
            if ok is None:
                ok = braids[t] = _braids(s, t)
            if not ok:
                return None
        elif _pmul(s, t) != _pmul(t, s):
            return None
        images.append(t)
        prod = _pmul(prod, t)
    return images if prod == a else None


def _all_equal(images):
    """Whether the image of a homomorphism is cyclic.

    A cyclic image is abelian, and commuting images a, b with aba = bab are
    equal; so the image is cyclic exactly when all generator images are
    equal, whichever conjugate represents it.
    """
    return all(g == images[0] for g in images)


def _bfs_code(images, start):
    """The action on the orbit of start, relabelled in breadth-first order
    (generators visited in order): the label of g(x) for each point x in
    label order and each generator g.  Returns the code and the orbit."""
    label = {start: 0}
    order = [start]
    code = []
    for x in order:
        for g in images:
            y = g[x]
            if y not in label:
                label[y] = len(order)
                order.append(y)
            code.append(label[y])
    return tuple(code), order


def _orbit_codes(images, k):
    """For each orbit of a sequence of permutations of range(k): its
    smallest breadth-first code over all start points, and a start point
    that gives it."""
    seen = set()
    out = []
    for x in range(k):
        if x in seen:
            continue
        code, orbit = _bfs_code(images, x)
        seen.update(orbit)
        out.append(min([(code, x)] + [(_bfs_code(images, y)[0], y)
                                      for y in orbit[1:]]))
    return out


def _conjugacy_key(images, k):
    """Complete invariant of a sequence of permutations of range(k) under
    simultaneous conjugation: the orbit codes, sorted."""
    return tuple(sorted(code for code, _ in _orbit_codes(images, k)))


def are_conjugate(h1, h2):
    """A conjugating permutation between two homomorphisms, or None.

    The orbit codes of _orbit_codes agree exactly when the homomorphisms
    are conjugate; the conjugator then maps the breadth-first order of each
    orbit of h1, from the start point giving its code, onto that of an
    orbit of h2 with the same code, point by point.
    """
    if (h1.n, h1.k) != (h2.n, h2.k):
        raise ValueError("homomorphisms must share (n, k)")
    k = h1.k
    gens1 = [_tuple(im) for im in h1.images]
    gens2 = [_tuple(im) for im in h2.images]
    orbits1 = sorted(_orbit_codes(gens1, k))
    orbits2 = sorted(_orbit_codes(gens2, k))
    if [c for c, _ in orbits1] != [c for c, _ in orbits2]:
        return None
    t = [0] * k
    for (_, x), (_, y) in zip(orbits1, orbits2):
        for a, b in zip(_bfs_code(gens1, x)[1], _bfs_code(gens2, y)[1]):
            t[a] = b
    return _perm(tuple(t))


def _conjugators(s, t):
    """Every a with a * s * a^-1 == t (apply a, then s, then a^-1), for t
    of the cycle type of s: s(a(x)) = a(t(x)), so a carries each cycle of
    t onto a cycle of s of the same length, in cyclic order, starting at
    any of its points.  That is one coset of the centraliser of s."""
    cycles_s, cycles_t = _cycles(s), _cycles(t)
    sizes = sorted({len(c) for c in cycles_s})
    # a sends the points of t's cycles, grouped by length, to those of s's
    # cycles: each ordering within a length, and each rotation of each one
    pos = _pinv(tuple(x for size in sizes for c in cycles_t
                      if len(c) == size for x in c))
    orders = [itertools.permutations([c for c in cycles_s if len(c) == size])
              for size in sizes]
    out = []
    for choice in itertools.product(*orders):
        rotations = [[d[r:] + d[:r] for r in range(len(d))]
                     for group in choice for d in group]
        for dst in itertools.product(*rotations):
            out.append(_pmul(pos, tuple(itertools.chain.from_iterable(dst))))
    return out


def _conjugates(p, group):
    """c * p * c^-1 for each (c, c^-1) pair of group."""
    return (_pmul(_pmul(c, p), cinv) for c, cinv in group)


def _orbit_minima(points, group):
    """The least point of each orbit of group, given as (c, c^-1) pairs,
    acting by conjugation on points, which are sorted and closed under
    that action."""
    seen = set()
    out = []
    for t in points:
        if t not in seen:
            out.append(t)
            seen.update(_conjugates(t, group))
    return out


def search_homs(n, k):
    """Conjugacy classes of homomorphisms into S(k), exhaustively.

    Every homomorphism is determined by the image pair (generator 1, full
    descending product); up to conjugacy the first image can be fixed to a
    cycle-type representative s.  The image of generator 2 is then
    t = a * s * a^-1 for the product image a, and it must braid with s; for
    t = s, where a commutes with s, every image is s and the product forces
    a = s^(n-1).  Conjugation by c in the centraliser C(s) keeps image 1 at
    s and sends image 2 to c * t * c^-1, so up to conjugacy t can be fixed
    too: only the least t != s of each C(s)-orbit of partners (the t of the
    class of s with sts = tst) is kept, and only the conjugators carrying s
    to it are listed.  Each candidate still goes through every relation
    check, and each homomorphism that passes is filed under its conjugacy
    key.  The homomorphisms of one class with image 1 = s are the
    C(s)-conjugates of any one of them, so the class is represented by the
    least product image c * a * c^-1 over C(s), and properties are computed
    once per class.  Classes come back deterministically sorted and
    labeled.
    """
    # the relation checks grow as n^2; n = 100, k = 8, the slowest accepted
    # call, takes about 0.5 s for one CLI call (medians of 8 and 10 in two
    # runs, 0.46 and 0.48 s; 2 CPUs, Python 3.11.7)
    if k > 8:
        raise CapacityError(
            "exhaustive search supported for k <= 8, the measured budget "
            "(the slowest accepted call, n = 100, k = 8, takes about 0.5 s)")
    if n > 100:
        raise CapacityError(
            "exhaustive search capped at n = 100 strands (the slowest "
            "accepted call, n = 100, k = 8, takes about 0.5 s), got n = %d"
            % n)
    if n < 3:
        raise ValueError("need at least three strands")
    _check_sizes(n, k)
    # one pass over S(k): the t != s of each representative's class that
    # braid with it
    partners = {rep.cycle_type(): (_tuple(rep), [])
                for rep in conjugacy_class_reps(k)}
    for t in itertools.permutations(range(k)):
        s, found = partners[_cycle_type(t)]
        if t != s and _braids(s, t):
            found.append(t)
    classes = {}
    for s, found in partners.values():
        power = s
        for _ in range(n - 2):
            power = _pmul(power, s)
        candidates = [power]
        # C(s) is listed only for a non-empty found: for s = identity it
        # would be all of S(k), and found is empty there
        centraliser = []
        if found:
            centraliser = [(c, _pinv(c)) for c in _conjugators(s, s)]
            for t in _orbit_minima(found, centraliser):
                candidates += _conjugators(s, t)
        braids = {}
        for a in candidates:
            images = _hom_images(s, a, n, braids)
            if images is not None:
                key = _conjugacy_key(images, k)
                if key not in classes:
                    least = min(_conjugates(a, centraliser), default=a)
                    classes[key] = _hom_images(s, least, n, braids)
    alpha = alpha_word(n).letters

    def sort_key(images):
        return (
            _cycle_type(images[0]),
            _cycle_type(_word_image(images, alpha, k)),
            tuple(images),
        )

    return [hom_class(_hom(n, k, images))
            for images in sorted(classes.values(), key=sort_key)]


def hom_class(h):
    """The entry search_homs lists for the class of h: h with its
    cyclicity, transitivity, surjectivity and image order."""
    props = hom_properties(h)
    return {"hom": h, "cyclic": props.pop("cyclic_image"), **props}


# ---------------------------------------------------------------------------
# the named homomorphisms
# ---------------------------------------------------------------------------


def standard_mu(n):
    return SymHom(n, n, tuple(
        Perm.transposition(n, i) for i in range(1, n)))


def exceptional_six():
    s = Perm.from_cycles(6, (1, 2), (3, 4), (5, 6))
    a = Perm.from_cycles(6, (1, 2, 3), (4, 5))
    h = hom_from_pair(s, a, 6, 6)
    if h is None:
        raise AssertionError("exceptional pair failed the relations")
    return h


def exceptional_four(which):
    pairs = {
        1: (Perm.from_cycles(4, (1, 2, 3, 4)), Perm.from_cycles(4, (1, 2))),
        2: (Perm.from_cycles(4, (1, 3, 2, 4)),
            Perm.from_cycles(4, (1, 2, 3, 4))),
        3: (Perm.from_cycles(4, (1, 2, 3)),
            Perm.from_cycles(4, (1, 2), (3, 4))),
    }
    s, a = pairs[which]
    h = hom_from_pair(s, a, 4, 4)
    if h is None:
        raise AssertionError("exceptional pair failed the relations")
    return h


def doubling_hom(n, which, presentation=ARTIN):
    """The three transitive homomorphisms into S(2n), generator by generator.

    which=1: the bare 4-cycle (2i-1, 2i+2, 2i, 2i+1);
    which=2: pair swaps away from the window, two transpositions inside;
    which=3: pair swaps away from the window, the 4-cycle inside.
    """
    images = []
    k = 2 * n
    for i in range(1, n):
        cycles = []
        if which in (2, 3):
            for j in range(1, n + 1):
                if j not in (i, i + 1):
                    cycles.append((2 * j - 1, 2 * j))
        if which == 2:
            cycles.append((2 * i - 1, 2 * i + 1))
            cycles.append((2 * i, 2 * i + 2))
        else:
            cycles.append((2 * i - 1, 2 * i + 2, 2 * i, 2 * i + 1))
        images.append(Perm.from_cycles(k, *cycles))
    return SymHom(n, k, tuple(images), presentation)


def lattice_hom(n, r, x, y):
    """Homomorphism into S(rn) acting on the r-by-n lattice of residues.

    Point m-1 = R + r*N with 0 <= R < r, 0 <= N < n.  Generator i shifts
    the first coordinate by y away from columns i-1 and i, advances column
    i-1 and pulls column i back with a shift by x.
    """
    k = r * n

    def encode(R, N):
        return (R % r) + r * (N % n) + 1

    images = []
    for i in range(1, n):
        imgs = [0] * k
        for m in range(k):
            R, N = m % r, m // r
            if N == i - 1:
                tgt = encode(R, N + 1)
            elif N == i:
                tgt = encode(R + x, N - 1)
            else:
                tgt = encode(R + y, N)
            imgs[m] = tgt
        images.append(Perm(tuple(imgs)))
    return SymHom(n, k, tuple(images))


# the stabiliser chain grows as about k^5; at this cap the slowest accepted
# call, braid-gallery --name phi3 --n 16, takes about 0.6 s (medians of 5 in
# two runs, 0.48 and 0.60 s, 16 MiB; 2 CPUs, Python 3.11.7)
_GALLERY_DEGREE_LIMIT = 32


def standard_gallery(name, n=None, r=None, x=None, y=None):
    """Named homomorphisms by construction, relation-verified.

    Only phixy takes r, x and y; nu6 and nu41..nu43 take no n other than
    their own strand count (6 and 4).  A degree past _GALLERY_DEGREE_LIMIT
    is refused before any image is built."""
    name = name.lower()
    if name != "phixy" and (r, x, y) != (None, None, None):
        raise ValueError("%s takes no r, x or y" % name)
    strands = {"nu6": 6, "nu41": 4, "nu42": 4, "nu43": 4}.get(name)
    if strands is not None and n not in (None, strands):
        raise ValueError("%s is on %d strands, got n = %d"
                         % (name, strands, n))
    per_strand = {"mu": 1, "phi1": 2, "phi2": 2, "phi3": 2,
                  "phixy": r}.get(name)
    if None not in (n, per_strand) and n * per_strand > _GALLERY_DEGREE_LIMIT:
        raise CapacityError(
            "braid-gallery capped at degree k = %d (n for mu, 2n for "
            "phi1-phi3, rn for phixy; the slowest accepted call, phi3 "
            "--n 16, takes about 0.6 s), got k = %d"
            % (_GALLERY_DEGREE_LIMIT, n * per_strand))
    if name == "mu":
        if n is None:
            raise ValueError("mu needs n")
        return standard_mu(n)
    if name == "nu6":
        return exceptional_six()
    if name in ("nu41", "nu42", "nu43"):
        return exceptional_four(int(name[-1]))
    if name in ("phi1", "phi2", "phi3"):
        if n is None:
            raise ValueError("%s needs n" % name)
        which = int(name[-1])
        # the second map kills the sphere kernel, so it carries the
        # stronger presentation marker
        return doubling_hom(n, which, SPHERE if which == 2 else ARTIN)
    if name == "phixy":
        if None in (n, r, x, y):
            raise ValueError("phixy needs n, r, x, y")
        return lattice_hom(n, r, x, y)
    raise ValueError("unknown gallery homomorphism %r" % name)
