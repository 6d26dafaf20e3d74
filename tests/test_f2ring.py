"""Ring engine tests: frozen examples first, then algebraic property loops."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basis, element, series_inv_ty
from parlines.charclass import _product_rings
from parlines.f2ring import (
    RingError,
    RingPresentation,
    invert,
    monomial_name,
    ring_adjoin_x,
    ring_proj_bundle,
    ring_projective,
    ring_truncated,
    ring_y0,
    ring_yhat,
)


def _bundle():
    # The projective bundle over a free truncated base: t**2 = w1*t + w2.
    base = ring_truncated("B", [("w1", 1, 3), ("w2", 2, 3)])
    return ring_proj_bundle(base, *base.gens())


def tuple_product(ring, p, q):
    """The terms of p*q by exponent tuples: every pair's raw monomial,
    zero past a truncation bound, and with g**2 -> w1*g + w2 applied to the
    top generator g until its exponent is at most 1."""
    bounds = ring._bounds

    def reduce(exps):
        if any(b is not None and e >= b for e, b in zip(exps, bounds)):
            return set()
        if ring.square is None or exps[-1] < 2:
            return {exps}
        out = set()
        for w, e in zip(ring.square, (exps[-1] - 1, exps[-1] - 2)):
            for wexps in w.terms:
                out ^= reduce(tuple(map(add, exps[:-1], wexps)) + (e,))
        return out

    acc = set()
    for a in p.terms:
        for b in q.terms:
            acc ^= reduce(tuple(map(add, a, b)))
    return acc


# -- construction and normal form -------------------------------------------


def test_projective_truncation():
    ring = ring_projective(2)
    t = ring.gen("t")
    assert bool(t * t)
    assert t ** 3 == ring.zero()
    assert str(invert(ring.one() + t)) == "1 + t + t^2"


def test_projective_m0_kills_t():
    ring = ring_projective(0)
    assert ring.gen("t") == ring.zero()
    assert invert(ring.one()) == ring.one()


def test_yhat_rewrite_examples():
    ring = ring_yhat(3)
    t, y, x = ring.gens()
    assert x * x == y + t * x
    # x^3 = x*y + t*x^2 = x*y + t*y + t^2*x
    assert x ** 3 == x * y + t * y + t * t * x
    assert str(x * (y + t * x)) == "y*x + t*y + t^2*x"
    assert t ** 4 == ring.zero()
    assert y ** 4 == ring.zero()
    # Products of generator powers come back in normal form.
    assert element(ring, (0, 0, 2)) == y + t * x
    assert element(ring, (2, 0, 3), (4, 0, 0)) == t * t * x ** 3
    assert ring.base.gen_names == ("t", "y")
    assert ring.from_base_coefficients({0: ring.base.gen("y")}) == y


def test_yhat_basis_shape():
    ring = ring_yhat(2)
    normal = basis(ring)
    assert len(normal) == 3 * 3 * 2
    assert all(t <= 2 and y <= 2 and x <= 1 for t, y, x in normal)
    # Each is a monomial of its own: their sum has every one as a term.
    assert element(ring, *normal).terms == set(normal)


def test_yhat_rejects_small_m():
    with pytest.raises(ValueError):
        ring_yhat(0)


def test_y0_examples():
    ring = ring_y0(1, 1)
    t0, s = ring.gens()
    assert t0 ** 2 == ring.zero()
    assert s ** 4 == ring.zero()
    assert bool(t0 * s ** 3)
    # q = 0 kills t0 entirely, and m = 0 is allowed there
    ring0 = ring_y0(0, 0)
    assert ring0.gen("t0") == ring0.zero()
    assert ring0.gen("s") ** 2 == ring0.zero()


def test_y0_requires_divisibility():
    with pytest.raises(ValueError):
        ring_y0(1, 2)  # 2 does not divide 3


def test_freshman_dream_in_char2():
    ring = ring_y0(2, 3)
    t0, s = ring.gens()
    assert (t0 + s) ** 2 == t0 ** 2 + s ** 2


def test_adjoin_x():
    base = ring_projective(3)
    ring = ring_adjoin_x(base, 2)
    assert ring.base is base
    x = ring.gen("x")
    t = ring.gen("t")
    assert x ** 3 == ring.zero()
    assert bool(t * x * x)
    with pytest.raises(RingError):
        ring_adjoin_x(ring, 2)  # name clash with existing x


def test_a_square_ring_cannot_be_extended():
    # Its top generator has no bound for a generator on top of it to keep.
    for ring in (_bundle(), ring_yhat(2)):
        with pytest.raises(RingError, match="square relation and cannot be extended"):
            ring_adjoin_x(ring, 2)
        with pytest.raises(RingError, match="square relation and cannot be extended"):
            ring_proj_bundle(ring, ring.zero(), ring.zero())


def test_proj_bundle_power_identity():
    base = ring_truncated("B", [("w1", 1, 6), ("w2", 2, 6)])
    w1, w2 = base.gens()
    ring = ring_proj_bundle(base, w1, w2)
    t = ring.gen("t")

    def lift(p):
        return ring.from_base_coefficients({0: p})

    assert t * t == lift(w1) * t + lift(w2)
    # t^3 = (w1^2 + w2) t + w1 w2, derived by substituting twice
    assert t ** 3 == lift(w1 * w1 + w2) * t + lift(w1 * w2)


def test_proj_bundle_zero_classes():
    base = ring_truncated("B", [("u", 1, 5)])
    z = base.zero()
    ring = ring_proj_bundle(base, z, z)
    assert ring.gen("t") ** 2 == ring.zero()
    assert bool(ring.from_base_coefficients({0: base.gen("u")}) * ring.gen("t"))


def test_proj_bundle_rejects_wrong_degrees():
    base = ring_truncated("B", [("w1", 1, 4), ("w2", 2, 4)])
    w1, w2 = base.gens()
    with pytest.raises(RingError):
        ring_proj_bundle(base, w2, w2)
    with pytest.raises(RingError):
        ring_proj_bundle(base, w1, w1)


# -- element operations -------------------------------------------------------


def test_addition_is_cancellation():
    ring = ring_yhat(2)
    t, y, x = ring.gens()
    p = t + y * x
    assert p + p == ring.zero()
    assert p + ring.zero() == p
    assert (t + y) + (y + x) == t + x


def test_mul_against_truncation():
    ring = ring_projective(4)
    t = ring.gen("t")
    assert t ** 2 * t ** 3 == ring.zero()
    assert bool(t ** 2 * t ** 2)


def test_mixing_rings_raises():
    a = ring_projective(2)
    b = ring_projective(2)
    with pytest.raises(RingError):
        a.gen("t") + b.gen("t")
    with pytest.raises(RingError):
        a.gen("t") * b.gen("t")


def test_pow_matches_repeated_mul():
    ring = ring_yhat(3)
    t, y, x = ring.gens()
    p = ring.one() + t + x
    by_hand = ring.one()
    for k in range(6):
        assert p ** k == by_hand
        by_hand = by_hand * p


def test_invert_examples():
    ring = ring_projective(5)
    t = ring.gen("t")
    inv = invert(ring.one() + t)
    assert inv == sum((t ** i for i in range(1, 6)), ring.one())
    assert invert(ring.one()) == ring.one()
    with pytest.raises(RingError):
        invert(t)


def test_invert_is_two_sided_inverse():
    rng = random.Random(20240817)
    for ring in (ring_projective(6), ring_yhat(3), _bundle(), ring_y0(2, 3)):
        normal = basis(ring)
        one = ring.one()
        for _ in range(25):
            picks = [e for e in normal if any(e) and rng.random() < 0.3]
            u = one + element(ring, *picks)
            assert invert(u) * u == one
            assert u * invert(u) == one


def test_coefficients_are_membership_in_terms():
    ring = ring_yhat(2)
    t, y, x = ring.gens()
    s = invert(ring.one() + t) * invert(ring.one() + t + y) * (ring.one() + x)
    assert (0, 2, 1) in s.terms  # y^2*x has coefficient 1
    assert (1, 0, 0) not in s.terms  # t has coefficient 0
    # S = w + w*x, with w's t^i y^j read from the Pascal triangle mod 2.
    assert s.terms == {(i, j, e) for i, j in series_inv_ty(2, 2) for e in (0, 1)}


def test_homogeneous_part_and_degrees():
    ring = ring_yhat(2)
    t, y, x = ring.gens()
    p = ring.one() + t + y + t * y * x
    assert p.homogeneous_part(0) == ring.one()
    assert p.homogeneous_part(2) == y
    assert p.homogeneous_part(4) == t * y * x
    assert p.homogeneous_part(3) == ring.zero()
    assert p.homogeneous_part(5) == ring.zero()


def test_text_form():
    ring = ring_yhat(2)
    t, y, x = ring.gens()
    assert str(ring.zero()) == "0"
    assert str(ring.one()) == "1"
    assert str(ring.one() + t + t * t * y * x) == "1 + t + t^2*y*x"
    # Terms print by degree, then by exponent tuple.
    assert str(t * y + y + x + t) == "x + t + y + t*y"
    assert monomial_name(ring.gen_names, (2, 1, 1)) == "t^2*y*x"


def test_gen_rejects_unknown_generator():
    ring = ring_projective(2)
    with pytest.raises(RingError, match="no generator 'z'"):
        ring.gen("z")


# -- algebra laws -------------------------------------------------------------


def test_ring_laws_exhaustive_tiny():
    ring = ring_projective(2)
    normal = basis(ring)
    elements = [
        element(ring, *[e for i, e in enumerate(normal) if mask >> i & 1])
        for mask in range(1 << len(normal))
    ]
    for p, q in itertools.product(elements, repeat=2):
        assert p + q == q + p
        assert p * q == q * p
    for p, q, r in itertools.product(elements[:4], elements[:4], elements):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


@pytest.mark.parametrize(
    "make", [lambda: ring_yhat(3), lambda: _bundle(), lambda: ring_y0(2, 3)]
)
def test_ring_laws_sampled(make):
    ring = make()
    normal = basis(ring)
    rng = random.Random(11)

    def sample():
        return element(ring, *[e for e in normal if rng.random() < 0.25])

    one = ring.one()
    for _ in range(40):
        p, q, r = sample(), sample(), sample()
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * one == p
        assert p + p == ring.zero()


def _with_dead_gen():
    # z has bound 1, so it is zero and every monomial must carry z^0.
    return ring_truncated("T", [("a", 1, 3), ("z", 1, 1), ("b", 2, 4)])


@pytest.mark.parametrize(
    "make",
    [
        _with_dead_gen,
        lambda: ring_adjoin_x(_with_dead_gen(), 3),
        lambda: ring_adjoin_x(ring_truncated("P2xP3", [("t1", 1, 3), ("t2", 1, 4)]), 4),
        lambda: ring_yhat(3),
        _bundle,
        # The oracles' rings: P^3 x P^2 [x;5], and the W_4 projective bundle.
        lambda: _product_rings(3, 2, 5)[1][(1, 1)].ring,
        lambda: ring_proj_bundle(
            *(lambda b: (b, *b.gens()))(ring_truncated("W4", [("w1", 1, 4), ("w2", 2, 4)]))
        ),
    ],
)
def test_mul_matches_normal_form_route(make):
    # The multiply is held to the tuple route: every term pair's raw
    # product monomial, reduced to normal form by tuple_product.
    ring = make()
    normal = basis(ring)
    rng = random.Random(5)

    def sample():
        return element(ring, *[e for e in normal if rng.random() < 0.3])

    samples = [ring.one(), ring.zero(), *ring.gens()] + [sample() for _ in range(30)]
    for p in samples:
        for q in samples[:8] + [sample()]:
            assert (p * q).terms == tuple_product(ring, p, q)
    if "z" in ring.gen_names:
        z = ring.gen("z")
        assert not z
        assert all(not (p * z) for p in samples)


def test_normal_form_closure_under_mul():
    ring = ring_yhat(4)
    normal = basis(ring)
    rng = random.Random(7)
    for _ in range(60):
        a = rng.choice(normal)
        b = rng.choice(normal)
        prod = element(ring, a) * element(ring, b)
        assert prod.terms <= set(normal)


def test_from_base_coefficients_inverts_base_coefficient():
    base = ring_truncated("B", [("u", 1, 3), ("v", 2, 2)])
    ring = ring_adjoin_x(base, 3)
    u, v, x = ring.gens()
    p = u * x ** 3 + v * x ** 2 + u * u * v + x
    coefficients = {k: ring.base_coefficient(p, k) for k in range(4)}
    assert ring.from_base_coefficients(coefficients) == p
    # Powers of x past its cap are zero.
    c = base.gen("u")
    assert ring.from_base_coefficients({2: c, 4: c, 9: c}) == u * x ** 2
    assert ring.from_base_coefficients({}) == ring.zero()
    with pytest.raises(RingError):
        ring.from_base_coefficients({0: u})  # not a base element
    with pytest.raises(RingError):
        ring.from_base_coefficients({-1: c})
    with pytest.raises(RingError):
        base.from_base_coefficients({0: c})  # base is not an extension
    # The square generator's square has no place of its own in the layout.
    w1, w2 = ring_truncated("W", [("w1", 1, 3), ("w2", 2, 3)]).gens()
    bundle = ring_proj_bundle(w1.ring, w1, w2)
    t = bundle.gen("t")
    w1_t = bundle.from_base_coefficients({1: w1})
    assert w1_t == bundle.gen("w1") * t
    assert bundle.from_base_coefficients({0: w2, 1: w1}) == bundle.gen("w2") + w1_t
    with pytest.raises(RingError):
        bundle.from_base_coefficients({2: w1.ring.one()})


# -- the packed layout against the tuple route ----------------------------------


def _mono_degree(ring, exps):
    return sum(e * d for e, d in zip(exps, ring.gen_degrees))


@st.composite
def truncated_bases(draw):
    """A truncated ring of 1-3 generators, each of degree 1..3 at a bound 1..6."""
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    return ring_truncated(
        "B", [(n, draw(st.integers(1, 3)), draw(st.integers(1, 6))) for n in names]
    )


@st.composite
def extensions(draw):
    """A truncated base with a top generator g of degree 1..3 over it,
    truncated at a bound 1..3 or bound by g**2 = w1*g + w2 for random
    homogeneous w1, w2 (zero included)."""
    base = draw(truncated_bases())
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return RingPresentation("R", [("g", d)], truncations={"g": draw(st.integers(1, 3))}, base=base)

    def homogeneous(degree):
        monos = [e for e in basis(base) if _mono_degree(base, e) == degree]
        return element(base, *draw(st.lists(st.sampled_from(monos), max_size=4))) if monos else base.zero()

    return RingPresentation("R", [("g", d)], square=(homogeneous(d), homogeneous(2 * d)), base=base)


def small_rings():
    """A truncated ring, or an extension of one by a top generator."""
    return st.one_of(truncated_bases(), extensions())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packed_engine_matches_tuple_route(data):
    ring = data.draw(small_rings())
    normal = basis(ring)
    pick = st.sets(st.sampled_from(normal), max_size=len(normal))
    left, right = data.draw(pick), data.draw(pick)
    p, q = element(ring, *left), element(ring, *right)
    assert p.terms == left and q.terms == right
    assert (p * q).terms == tuple_product(ring, p, q)
    for d in range(-1, ring.top_degree() + 2):
        assert p.homogeneous_part(d).terms == {e for e in left if _mono_degree(ring, e) == d}
    ordered = sorted(left, key=lambda e: (_mono_degree(ring, e), e))
    assert str(p) == (" + ".join(monomial_name(ring.gen_names, e) for e in ordered) or "0")


def test_building_a_large_ring_allocates_nothing_ring_sized():
    # At m = 4096 the packed layout of x^2 = t*x + y reaches bit 1.3e8:
    # building the ring, and naming its monomials, must not pack it.
    tracemalloc.start()
    try:
        ring = ring_yhat(4096)
        assert monomial_name(ring.gen_names, (4096, 4096, 1)) == "t^4096*y^4096*x"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lifting_from_the_base_keeps_bits_and_is_multiplicative(data):
    # Lifting is from_base_coefficients({0: p}): it keeps p's bits, and it
    # is a ring map; and base_coefficient reads back what it placed.
    ring = data.draw(extensions())
    base = ring.base
    pick = st.lists(st.sampled_from(basis(base)), max_size=6)
    p, q = element(base, *data.draw(pick)), element(base, *data.draw(pick))

    def lift(c):
        return ring.from_base_coefficients({0: c})

    assert lift(p).bits == p.bits
    assert lift(p * q) == lift(p) * lift(q)
    assert lift(p + q) == lift(p) + lift(q)
    assert lift(base.one()) == ring.one()
    k = data.draw(st.integers(0, ring._caps[-1]))
    assert ring.base_coefficient(ring.from_base_coefficients({k: p}), k) == p
    with pytest.raises(RingError):
        base.from_base_coefficients({0: p})  # a truncated base extends nothing


def test_an_extension_adds_one_generator_on_top():
    base = ring_truncated("B", [("a", 1, 3), ("b", 2, 2)])
    ring = RingPresentation("E", [("g", 1)], truncations={"g": 3}, base=base)
    assert (ring.base, ring.gen_names, ring.gen_degrees) == (base, ("a", "b", "g"), (1, 2, 1))
    a, b, g = ring.gens()
    assert b * b == ring.zero() and bool(a * a * g * g)  # the base's bounds are kept
    with pytest.raises(RingError, match="exactly one generator"):
        RingPresentation("E", [], base=base)
    with pytest.raises(RingError, match="exactly one generator"):
        RingPresentation("E", [("g", 1), ("h", 1)], truncations={"g": 3, "h": 3}, base=base)
    with pytest.raises(RingError, match="duplicate generator names"):
        RingPresentation("E", [("a", 1)], truncations={"a": 3}, base=base)
    with pytest.raises(RingError, match="needs truncations"):  # a's bound is the base's
        RingPresentation("E", [("g", 1)], truncations={"g": 3, "a": 2}, base=base)
    with pytest.raises(RingError, match="square relation and cannot be extended"):
        RingPresentation("E", [("g", 1)], truncations={"g": 3}, base=_bundle())


def test_every_generator_needs_exactly_one_relation():
    base = ring_truncated("B", [("a", 1, 3), ("b", 2, 2)])
    a, b = base.gens()
    ring = RingPresentation("U", [("g", 1)], square=(a, a * a + b), base=base)
    g = ring.gen("g")
    assert g * g == ring.from_base_coefficients({0: a * a + b, 1: a})
    with pytest.raises(RingError, match="needs truncations"):  # b left untruncated
        RingPresentation("U", [("a", 1), ("b", 1)], truncations={"a": 3})
    with pytest.raises(RingError, match="needs truncations"):
        RingPresentation("U", [("a", 1)], truncations={"a": 3, "z": 2})
    with pytest.raises(RingError, match="needs truncations"):  # g takes neither
        RingPresentation("U", [("g", 1)], base=base)
    with pytest.raises(RingError, match="needs truncations"):  # g takes both
        RingPresentation("U", [("g", 1)], truncations={"g": 2}, square=(a, b), base=base)
    with pytest.raises(RingError, match="needs a base"):
        RingPresentation("U", [("a", 1), ("g", 1)], truncations={"a": 3}, square=(a, b))
    other = ring_truncated("B", [("a", 1, 3), ("b", 2, 2)])
    with pytest.raises(RingError, match="live in the base"):
        RingPresentation("U", [("g", 1)], square=(other.gen("a"), b), base=base)
    with pytest.raises(RingError, match="live in the base"):
        RingPresentation("U", [("g", 1)], square=(a, other.gen("b")), base=base)
    with pytest.raises(RingError, match="homogeneous element of degree 2"):
        RingPresentation("U", [("g", 1)], square=(a, a + b), base=base)
