"""linear-sweep: the linear side with no group code at all.

Rounds mix the regimes of acceptance criteria 09, 10 and 12 over the Laurent
ambient with degree window [0, 8], a share of pairs in the quartic field
Q[x]/(x^4 - 2), and a tail of strong_matching_report on dims 2 x m for
m = 4, 5, 6.  One 2 x 7 report runs once at the start: it costs about two
seconds, too much to repeat every round, and it runs the same number of times
in every run.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import Op, Pool, count, op_rng
import oracle as O
from oracle import require

NAME = "linear-sweep"


class Space:
    """A subspace: the benchmark's own spanning vectors and matchkit's object."""

    def __init__(self, mk, amb, vecs):
        self.vecs = vecs
        self.mk = mk.echelonize(amb, [mk.AlgebraElement(amb, v) for v in vecs])
        self.dim = len(vecs)


class Algebra:
    def __init__(self, mk, amb, mul, keys):
        self.mk = mk
        self.amb = amb
        self.mul = mul
        self.keys = keys

    def vec(self, rng, keys=None, size=9):
        keys = self.keys if keys is None else keys
        return {k: Fraction(c) for k in keys if (c := rng.randint(-size, size))}

    def space(self, rng, dim, keys=None, size=9, exclude_unity=False) -> Space:
        while True:
            vecs = [self.vec(rng, keys, size) for _ in range(dim)]
            if O.rank(vecs) != dim:
                continue
            if exclude_unity and O.in_span({0: Fraction(1)}, vecs):
                continue
            return Space(self.mk, self.amb, vecs)

    def of_vecs(self, vecs) -> Space:
        return Space(self.mk, self.amb, vecs)

    def element(self, vec):
        return self.mk.AlgebraElement(self.amb, vec)

    def random_basis(self, rng, space: Space) -> list:
        """Own vectors of a random ordered basis: an invertible integer change
        of basis applied to the spanning vectors."""
        n = space.dim
        while True:
            cols = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            elems = [O.combine(c, space.vecs) for c in cols]
            if O.rank(elems) == n:
                return elems


def nonzero_rational(rng) -> Fraction:
    return Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 4))


def check_witness(alg: Algebra, A: Space, B: Space, witness) -> None:
    a, b, p = O.vec_of(witness.a), O.vec_of(witness.b), O.vec_of(witness.product)
    require(O.in_span(a, A.vecs) and O.in_span(b, B.vecs), "witness factors outside A, B")
    require(p and alg.mul(a, b) == p, "witness product is wrong or zero")
    require(O.in_span(p, A.vecs), "witness product is outside A")


def check_report(alg: Algebra, A: Space, B: Space, report, counters, rng,
                 expect=None, decisive=True) -> str:
    count(counters, f"linear.strong.{report.certificate}")
    if expect is not None:
        require(report.exists == expect, f"strong matching exists={report.exists}")
    if not report.exists:
        check_witness(alg, A, B, report.witness)
    else:
        require(report.decisive or not decisive, "these regimes must get a decisive verdict")
        for _ in range(3):
            a = O.combine([rng.randint(-3, 3) or 1 for _ in A.vecs], A.vecs)
            b = O.combine([rng.randint(-3, 3) or 1 for _ in B.vecs], B.vecs)
            p = alg.mul(a, b)
            require(not (p and O.in_span(p, A.vecs)), "probe found a product inside A")
    return f"{report.exists}:{report.certificate}"


def op_strong(alg, A, B, rng, kind="strong_matching_report", expect=None, decisive=True):
    probe = random.Random(rng.random())
    return Op(kind,
              lambda t: t.call("linear.strong_matching_report",
                               alg.mk.strong_matching_report, A.mk, B.mk),
              lambda r, c: check_report(alg, A, B, r, c, probe, expect, decisive))


def op_violating(alg, rng):
    """Criterion 09 regime 2: A = <a, ab>, B = <b, c>, so ab witnesses failure."""
    while True:
        a, b, c = (alg.vec(rng, [0, 1, 2]) for _ in range(3))
        ab = alg.mul(a, b)
        if a and b and O.rank([a, ab]) == 2 and O.rank([b, c]) == 2:
            break
    A, B = alg.of_vecs([a, ab]), alg.of_vecs([b, c])
    probe = random.Random(rng.random())
    mk = alg.mk

    def run(t):
        report = t.call("linear.strong_matching_report", mk.strong_matching_report, A.mk, B.mk)
        return report, t.call("linear.violating_basis_pair", mk.violating_basis_pair,
                              A.mk, B.mk, report.witness)

    def check(result, counters):
        report, (abasis, bbasis) = result
        check_report(alg, A, B, report, counters, probe, expect=False)
        avecs = [O.vec_of(x) for x in abasis.elements]
        bvecs = [O.vec_of(x) for x in bbasis.elements]
        require(O.rank(avecs) == 2 and all(O.in_span(x, A.vecs) for x in avecs), "bad A basis")
        require(O.rank(bvecs) == 2 and all(O.in_span(x, B.vecs) for x in bvecs), "bad B basis")
        require(not O.is_matched(alg.mul, avecs, bvecs, A.vecs), "bases are matched")
        return "violated"

    return Op("violating_basis_pair", run, check)


def op_echelonize(alg, rng):
    """Building a subspace from spanning vectors, possibly dependent ones."""
    vecs = [alg.vec(rng) for _ in range(rng.randint(1, 5))]
    if len(vecs) > 1 and rng.random() < 0.5:
        vecs.append(O.combine([rng.randint(-3, 3) for _ in vecs], vecs))
    elements = [alg.element(v) for v in vecs]

    def check(result, counters):
        basis = [O.vec_of(x) for x in result.basis]
        require(len(basis) == O.rank(vecs) == O.rank(basis), "wrong dimension")
        require(all(O.in_span(v, basis) for v in vecs), "span changed")
        return f"{len(basis)}"

    return Op("echelonize",
              lambda t: t.call("algebra.echelonize", alg.mk.echelonize, alg.amb, elements), check)


def op_random_ordered_basis(alg, rng):
    S = alg.space(rng, rng.randint(1, 5), list(range(9)))
    seed = rng.randrange(2 ** 32)

    def check(result, counters):
        vecs = [O.vec_of(x) for x in result.elements]
        require(len(vecs) == S.dim and O.rank(vecs) == S.dim, "not a basis")
        require(all(O.in_span(x, S.vecs) for x in vecs), "element outside the subspace")
        return "ok"

    return Op("random_ordered_basis",
              lambda t: t.call("linear.random_ordered_basis", alg.mk.random_ordered_basis,
                               S.mk, random.Random(seed)), check)


def op_ordered_basis(alg, rng):
    S = alg.space(rng, rng.randint(1, 5), list(range(9)))
    elems = [alg.element(v) for v in alg.random_basis(rng, S)]

    def check(result, counters):
        require(result.elements == tuple(elems) and result.n == S.dim, "basis changed")
        return "ok"

    return Op("OrderedBasis",
              lambda t: t.call("linear.OrderedBasis", alg.mk.OrderedBasis, S.mk, elems), check)


def op_is_matched(alg, rng, separated: bool):
    """Criterion 09 check: random ordered bases of a pair; always matched when
    the pair is separated (degrees 0..3 against 5..8)."""
    d = rng.randint(1, 4 if separated else 2)
    A = alg.space(rng, d, [0, 1, 2, 3])
    B = alg.space(rng, d, [5, 6, 7, 8] if separated else [0, 1, 2, 3])
    avecs, bvecs = alg.random_basis(rng, A), alg.random_basis(rng, B)
    abasis = alg.mk.OrderedBasis(A.mk, [alg.element(v) for v in avecs])
    bbasis = alg.mk.OrderedBasis(B.mk, [alg.element(v) for v in bvecs])

    def check(result, counters):
        expected = O.is_matched(alg.mul, avecs, bvecs, A.vecs)
        require(result == expected, f"is_matched_basis={result}, own check {expected}")
        require(expected or not separated, "separated pair must be matched")
        return f"{result}"

    return Op("is_matched_basis",
              lambda t: t.call("linear.is_matched_basis", alg.mk.is_matched_basis,
                               abasis, bbasis), check)


def op_match_basis(alg, A: Space, B: Space, expect_found: bool):
    abasis = alg.mk.OrderedBasis.canonical(A.mk)
    avecs = [O.vec_of(x) for x in abasis.elements]

    def check(result, counters):
        count(counters, "linear.match_basis.attempts", result.attempts)
        n = A.dim
        if result.basis is None:
            require(not expect_found, "no matched basis for a pair that has one")
            size = len(result.violator)
            dim = O.violator_dimension(alg.mul, avecs, B.vecs, A.vecs, result.violator)
            require(dim > n - size, f"violator {result.violator} has dim {dim}")
            return f"violator{result.violator}"
        count(counters, "linear.match_basis.found")
        bvecs = [O.vec_of(x) for x in result.basis.elements]
        require(O.rank(bvecs) == n and all(O.in_span(x, B.vecs) for x in bvecs),
                "matched basis is not a basis of B")
        require(O.is_matched(alg.mul, avecs, bvecs, A.vecs), "returned basis is not matched")
        return f"found:{result.attempts}"

    return Op("match_basis",
              lambda t: t.call("linear.match_basis", alg.mk.match_basis, abasis, B.mk), check)


def op_find_scaling(alg, A: Space, alpha):
    B = alg.of_vecs([alg.mul(alpha, a) for a in A.vecs])

    def check(result, counters):
        require(result is not None, "scaling not found")
        found = O.vec_of(result)
        image = [alg.mul(found, a) for a in A.vecs]
        require(O.rank(image) == A.dim and all(O.in_span(x, B.vecs) for x in image),
                "alpha*A != B")
        return "found"

    return Op("find_scaling",
              lambda t: t.call("linear.find_scaling", alg.mk.find_scaling, A.mk, B.mk), check)


def op_lemma_4_3(alg, rng, scalar_branch: bool):
    """Criterion 12: equivalent strong matchings f, g under phi."""
    mk = alg.mk
    d = rng.randint(1, 3)
    A = alg.space(rng, d, [0, 1, 2])
    abasis = mk.OrderedBasis.canonical(A.mk)
    if scalar_branch:
        B = alg.space(rng, d, [5, 6, 7])
        bcan = mk.OrderedBasis.canonical(B.mk)
        images = [alg.element(v) for v in alg.random_basis(rng, B)]
        g = mk.LinearIso.from_images(abasis, bcan, images)
        scale = nonzero_rational(rng)
        f = mk.LinearIso(abasis, bcan, [[scale * scale * v for v in row] for row in g.matrix])
        phi = mk.LinearIso(abasis, abasis, [[scale if i == j else Fraction(0)
                                             for j in range(d)] for i in range(d)])
        alpha = None
    else:
        scale = None
        alpha = {rng.randint(3, 4): nonzero_rational(rng)}
        B = alg.of_vecs([alg.mul(alpha, a) for a in A.vecs])
        w = mk.LinearIso.multiplication_by(alg.element(alpha), A.mk, B.mk)
        images = [alg.element(v) for v in alg.random_basis(rng, A)]
        phi = mk.LinearIso.from_images(abasis, abasis, images)
        f = w.compose(phi)
        g = w.compose(phi.inverse())

    def check(result, counters):
        if scalar_branch:
            require(result.branch == "scalar" and result.scalar == scale * scale,
                    f"branch {result.branch}")
        else:
            require(result.branch in ("scalar", "scaling"), f"branch {result.branch}")
            if result.branch == "scaling":
                require(O.vec_of(result.alpha) == alpha, "wrong scaling alpha")
        return result.branch

    return Op("lemma_4_3_check",
              lambda t: t.call("linear.lemma_4_3_check", mk.lemma_4_3_check, f, g, phi), check)


def tail_op(alg, rng, m):
    A = alg.space(rng, 2, [0, 1, 2])
    B = alg.space(rng, m, list(range(9)))
    return op_strong(alg, A, B, rng, kind=f"strong_2x{m}")


def build(mk, seed: int, quick: bool, workdir: str) -> Pool:
    L = Algebra(mk, mk.LaurentAmbient(0, 8), O.laurent_mul, list(range(9)))
    Q = Algebra(mk, mk.StructureConstantAmbient.power_basis([2, 0, 0, 0]),
                O.quartic_mul, [0, 1, 2, 3])
    prefix = [] if quick else [tail_op(L, op_rng(NAME, seed, 0), 7)]
    index = len(prefix)

    def rng():
        nonlocal index
        index += 1
        return op_rng(NAME, seed, index - 1)

    def rounds():
        while True:
            ops = []
            for d in (1, 2, 3, 4):
                r = rng()
                ops.append(op_strong(L, L.space(r, d, [0, 1, 2, 3]), L.space(r, d, [5, 6, 7, 8]),
                                     r, expect=True))
            for d in (1, 2):
                r = rng()
                ops.append(op_strong(L, L.space(r, d, [0, 1, 2, 3]),
                                     L.space(r, d, [0, 1, 2, 3]), r))
            ops.append(op_violating(L, rng()))
            ops.append(op_violating(L, rng()))
            ops.append(op_echelonize(L, rng()))
            ops.append(op_echelonize(L, rng()))
            ops.append(op_random_ordered_basis(L, rng()))
            ops.append(op_ordered_basis(L, rng()))
            ops.append(op_is_matched(L, rng(), separated=True))
            ops.append(op_is_matched(L, rng(), separated=False))
            for _ in range(2):
                r = rng()
                n = r.randint(1, 5)
                ops.append(op_match_basis(L, L.space(r, n, L.keys),
                                          L.space(r, n, L.keys, exclude_unity=True), True))
            for _ in range(2):
                r = rng()
                alpha = {r.randint(0, 3): nonzero_rational(r)}
                if r.random() < 0.5:
                    k = r.randint(0, 3)
                    alpha[k] = alpha.get(k, 0) + nonzero_rational(r)
                alpha = {k: v for k, v in alpha.items() if v} or {0: Fraction(1)}
                ops.append(op_find_scaling(L, L.space(r, r.randint(1, 3), [0, 1, 2, 3, 4]),
                                           alpha))
            ops.append(op_lemma_4_3(L, rng(), scalar_branch=True))
            ops.append(op_lemma_4_3(L, rng(), scalar_branch=False))
            r = rng()
            ops.append(op_strong(Q, Q.space(r, 2, size=3), Q.space(r, 2, size=3), r,
                                 decisive=False))
            r = rng()
            ops.append(op_match_basis(Q, Q.space(r, 2, size=3),
                                      Q.space(r, 2, size=3, exclude_unity=True), False))
            r = rng()
            alpha = Q.vec(r, size=3) or {0: Fraction(1)}
            ops.append(op_find_scaling(Q, Q.space(r, 2, size=3), alpha))
            for m in ((4,) if quick else (4, 5, 6)):
                ops.append(tail_op(L, rng(), m))
            yield ops

    return Pool(prefix, rounds())
