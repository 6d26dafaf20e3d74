"""Ring engine tests: frozen examples first, then algebraic property loops."""

from __future__ import annotations

import itertools
import random

import pytest

from parlines.f2ring import (
    RingError,
    invert,
    ring_adjoin_x,
    ring_proj_bundle,
    ring_projective,
    ring_truncated,
    ring_y0,
    ring_yhat,
)


def _bundle_then_x():
    # An extension of an extension: the rewrite t**2 = w1*t + w2 must carry
    # over into the ring that adjoins x, with t capped at exponent 1.
    base = ring_truncated("B", [("w1", 1, 3), ("w2", 2, 3)])
    w1, w2 = base.gens()
    return ring_adjoin_x(ring_proj_bundle(base, w1, w2), 2)


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


def test_yhat_basis_shape():
    ring = ring_yhat(2)
    basis = list(ring.basis())
    assert len(basis) == 3 * 3 * 2
    for mono in basis:
        exps = dict(zip(ring.gen_names, mono.exps))
        assert exps["t"] <= 2 and exps["y"] <= 2 and exps["x"] <= 1


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


def test_proj_bundle_power_identity():
    base = ring_truncated("B", [("w1", 1, 6), ("w2", 2, 6)])
    w1, w2 = base.gens()
    ring = ring_proj_bundle(base, w1, w2)
    t = ring.gen("t")
    lift = ring.lift_from_base
    assert t * t == lift(w1) * t + lift(w2)
    # t^3 = (w1^2 + w2) t + w1 w2, derived by substituting twice
    assert t ** 3 == lift(w1 * w1 + w2) * t + lift(w1 * w2)


def test_proj_bundle_zero_classes():
    base = ring_truncated("B", [("u", 1, 5)])
    z = base.zero()
    ring = ring_proj_bundle(base, z, z)
    assert ring.gen("t") ** 2 == ring.zero()
    assert bool(ring.lift_from_base(base.gen("u")) * ring.gen("t"))


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
    for ring in (ring_projective(6), ring_yhat(3), _bundle_then_x(), ring_y0(2, 3)):
        basis = list(ring.basis())
        one = ring.one()
        for _ in range(25):
            picks = [mo for mo in basis if mo.degree() > 0 and rng.random() < 0.3]
            u = one + ring.element(*picks)
            assert invert(u) * u == one
            assert u * invert(u) == one


def test_coefficient_and_errors():
    ring = ring_yhat(2)
    t, y, x = ring.gens()
    s = invert(ring.one() + t) * invert(ring.one() + t + y) * (ring.one() + x)
    assert s.coefficient(ring.monomial(y=2, x=1)) == 1
    assert s.coefficient(ring.monomial(t=1)) == 0
    with pytest.raises(RingError):
        s.coefficient(ring.monomial(x=2))  # not in normal form
    with pytest.raises(RingError):
        s.coefficient(ring.monomial(t=3))  # truncated away
    with pytest.raises(RingError):
        s.coefficient(ring_yhat(2).monomial(t=1))  # wrong ring


def test_homogeneous_part_and_degrees():
    ring = ring_yhat(2)
    t, y, x = ring.gens()
    p = ring.one() + t + y + t * y * x
    assert p.homogeneous_part(0) == ring.one()
    assert p.homogeneous_part(2) == y
    assert p.homogeneous_part(4) == t * y * x
    assert p.homogeneous_part(3) == ring.zero()
    assert p.max_nonzero_degree() == 4
    assert ring.zero().max_nonzero_degree() == -1


def test_text_form():
    ring = ring_yhat(2)
    t, y, x = ring.gens()
    assert str(ring.zero()) == "0"
    assert str(ring.one()) == "1"
    assert str(ring.one() + t + t * t * y * x) == "1 + t + t^2*y*x"
    mono = ring.monomial(t=2, y=1, x=1)
    assert str(mono) == "t^2*y*x"
    assert mono.exponents == {"t": 2, "y": 1, "x": 1}
    assert mono.degree() == 5


def test_monomial_rejects_unknown_generator():
    ring = ring_projective(2)
    with pytest.raises(RingError):
        ring.monomial(z=1)


# -- algebra laws -------------------------------------------------------------


def test_ring_laws_exhaustive_tiny():
    ring = ring_projective(2)
    basis = list(ring.basis())
    elements = [
        ring.element(*[mo for i, mo in enumerate(basis) if mask >> i & 1])
        for mask in range(1 << len(basis))
    ]
    for p, q in itertools.product(elements, repeat=2):
        assert p + q == q + p
        assert p * q == q * p
    for p, q, r in itertools.product(elements[:4], elements[:4], elements):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


@pytest.mark.parametrize(
    "make", [lambda: ring_yhat(3), lambda: _bundle_then_x(), lambda: ring_y0(2, 3)]
)
def test_ring_laws_sampled(make):
    ring = make()
    basis = list(ring.basis())
    rng = random.Random(11)

    def sample():
        return ring.element(*[mo for mo in basis if rng.random() < 0.25])

    one = ring.one()
    for _ in range(40):
        p, q, r = sample(), sample(), sample()
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * one == p
        assert p + p == ring.zero()


def test_normal_form_closure_under_mul():
    ring = ring_yhat(4)
    basis = list(ring.basis())
    rng = random.Random(7)
    for _ in range(60):
        a = rng.choice(basis)
        b = rng.choice(basis)
        prod = ring.element(a) * ring.element(b)
        for exps in prod.terms:
            assert ring._is_normal_mono(exps)


def test_lift_from_base_is_multiplicative():
    base = ring_projective(4)
    ring = ring_adjoin_x(base, 3)
    t = base.gen("t")
    lift = ring.lift_from_base
    assert lift(t * t) == lift(t) * lift(t)
    assert lift(base.one()) == ring.one()
    with pytest.raises(RingError):
        base.lift_from_base(t)
