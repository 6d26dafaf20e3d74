"""Coefficient-engine tests.

Every series support is cross-checked against the Pascal-triangle oracles
in conftest, and each checker's key coefficient is re-derived from those
oracles, so the ring engine and the closed-form routes must agree.
"""

from __future__ import annotations

import math

import pytest
from conftest import binom2, element, series_inv_t, series_inv_ty
from hypothesis import given, settings
from hypothesis import strategies as st

from parlines.charclass import (
    LINE_SPECS,
    DimensionParams,
    all_checks,
    check_corollary,
    check_prelude,
    check_prop_q,
    check_theorem_a,
    check_theorem_a_v2,
    check_theorem_b,
    euler_line_tensor_quotient,
    expected_outcome,
    oracle_umkehr_dual,
    oracle_umkehr_product,
    prop_q_max_degree,
)
from parlines.cli import main
from parlines.f2ring import (
    RingElement,
    RingError,
    RingPresentation,
    invert,
    monomial_name,
    ring_adjoin_x,
    ring_proj_bundle,
    ring_truncated,
    ring_y0,
    ring_yhat,
)
from parlines import charclass
from parlines.charclass import _LINE_BITS, _dual_rings, _line_class, _product_base, _product_rings
from parlines.cli import main
from parlines.charclass import _INV_TY, _S, _T_S, _W, _part


# -- binomials and dimension bookkeeping --------------------------------------


def test_r_q_match_definitions():
    for m in range(301):
        r = DimensionParams(m).r
        assert (1 << (r - 1)) <= m + 1 < (1 << r)
        q = DimensionParams(m).q
        assert (m + 1) % (1 << q) == 0
        assert (m + 1) % (1 << (q + 1)) != 0


def test_dimension_params_frozen_values():
    cases = {
        0: (1, 0, 1, True),
        1: (2, 1, 4, True),
        2: (2, 0, 5, False),
        3: (3, 2, 10, True),
        4: (3, 0, 11, False),
        7: (4, 3, 22, True),
        12: (4, 0, 27, False),
        15: (5, 4, 46, True),
        64: (7, 0, 191, False),
    }
    for m, (r, q, n, boundary) in cases.items():
        p = DimensionParams(m)
        assert (p.r, p.q, p.n, p.boundary) == (r, q, n, boundary)


def test_dimension_params_validation():
    # r, q and n are read from m, so no disagreeing value can be stored.
    with pytest.raises(TypeError):
        DimensionParams(m=2, r=2, q=0, n=99)
    with pytest.raises(AttributeError):
        DimensionParams(3).n = 10
    with pytest.raises(ValueError):
        DimensionParams(-1)
    # m = 0 (domain R^1) has parameters, but the series checks reject it.
    for check in (check_theorem_b, check_theorem_a, check_theorem_a_v2, check_corollary):
        with pytest.raises(ValueError, match="m must be >= 1"):
            check(0)


# -- series supports: the closed form, ring engine and Pascal oracle -----------


SERIES = {"inv_ty": _INV_TY, "w": _W, "S": _S, "t*S": _T_S}


def closed_form_element(m: int, series, ring) -> RingElement:
    """A series read from its closed form, as an element of ``ring_yhat(m)``."""
    return element(ring, *(e for d in range(3 * m + 2) for e in _part(m, series, d)))


def set_engine_series(m: int) -> dict:
    """The four series through the generic ring engine: ring_yhat + invert."""
    ring = ring_yhat(m)
    t, y, x = ring.gens()
    one = ring.one()
    inv_ty = invert(one + t + y)
    w = invert(one + t) * inv_ty
    s = w * (one + x)
    return {"inv_ty": inv_ty, "w": w, "S": s, "t*S": t * s}


def pascal_series(m: int) -> dict:
    """The four supports from the Pascal closed form."""
    w = {(i, j, 0) for i, j in series_inv_ty(m, 2)}
    s = {(i, j, e) for i, j, _ in w for e in (0, 1)}  # S = w + w*x
    return {
        "inv_ty": {(i, j, 0) for i, j in series_inv_ty(m, 1)},
        "w": w,
        "S": s,
        "t*S": {(i + 1, j, e) for i, j, e in s if i < m},
    }


def assert_three_routes_agree(m: int) -> None:
    closed = pascal_series(m)
    for name, ref in set_engine_series(m).items():
        by_degree = {}
        for e in sorted(ref.terms):
            by_degree.setdefault(e[0] + 2 * e[1] + e[2], []).append(e)
        for d in range(3 * m + 2):
            got = _part(m, SERIES[name], d)
            assert got == by_degree.get(d, []), (m, name, d)
            assert set(got) == {e for e in closed[name] if e[0] + 2 * e[1] + e[2] == d}, (m, name, d)


@pytest.mark.parametrize("m", [*range(1, 11), 63, 64, 127, 128])
def test_series_supports_match_oracle(m):
    inv_ty, w = (closed_form_element(m, SERIES[k], ring_yhat(m)) for k in ("inv_ty", "w"))
    got_inv_ty, got_w = set(inv_ty.terms), set(w.terms)
    assert all(e == 0 for (_, _, e) in got_inv_ty | got_w)
    assert {(i, j) for (i, j, _) in got_inv_ty} == series_inv_ty(m, 1)
    assert {(i, j) for (i, j, _) in got_w} == series_inv_ty(m, 2)
    assert_three_routes_agree(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_series_three_routes_random_m(m):
    assert_three_routes_agree(m)


def test_series_data_internal_identities():
    m = 6
    ring = ring_yhat(m)
    s, w, inv_ty, t_s = (closed_form_element(m, SERIES[k], ring) for k in ("S", "w", "inv_ty", "t*S"))
    one = ring.one()
    t, y, x = ring.gens()
    assert s == w * (one + x)
    assert inv_ty * (one + t + y) == one
    assert w * (one + t) * (one + t + y) == one
    assert inv_ty * (one + x) * (one + t + x) == one
    assert t_s == t * s


def test_closed_form_matches_pascal_for_every_small_m():
    # Every m of 1..129, so every r up to 8 and both sides of each power of two.
    for m in range(1, 130):
        for name, shift in (("inv_ty", 1), ("w", 2)):
            got = [e for d in range(3 * m + 2) for e in _part(m, SERIES[name], d)]
            assert all(e == 0 for (_, _, e) in got), (m, name)
            assert {(i, j) for (i, j, _) in got} == series_inv_ty(m, shift), (m, name)


@pytest.mark.parametrize("m", [255, 256, 1023, 2047, 4095, 4096])
def test_closed_form_matches_binomials_at_large_m(m):
    # Around the key degrees n-1 .. n+2, each series' part against its
    # coefficients C(i - shift + j + row, j + row) mod 2 from math.comb.
    n = DimensionParams(m).n
    for name, (row, shift, x_exp) in SERIES.items():
        for d in range(n - 1, n + 3):
            want = []
            for i in range(shift, m + 1):
                for e in range(x_exp + 1):
                    j, odd = divmod(d - i - e, 2)
                    if not odd and 0 <= j <= m and math.comb(i - shift + j + row, j + row) % 2:
                        want.append((i, j, e))
            assert _part(m, SERIES[name], d) == want, (m, name, d)


# -- the non-vanishing checks --------------------------------------------------


def test_prelude_iff_n_le_m():
    for m in range(1, 13):
        for n in range(1, 13):
            rep = check_prelude(m, n)
            assert rep.passed == (n <= m)
            assert rep.key_coefficient == series_inv_t(m, n)
    with pytest.raises(ValueError):
        check_prelude(0, 1)


def test_theorem_b_sweep():
    for m in range(1, 25):
        rep = check_theorem_b(m)
        r = DimensionParams(m).r
        e = (1 << r) - m - 2
        assert 0 <= e <= m
        assert rep.passed
        assert rep.key_coefficient == 1
        expected_key = ("" if e == 0 else f"t^{e}*" if e > 1 else "t*") + (
            f"y^{m}*x" if m > 1 else "y*x"
        )
        assert rep.key_monomial == expected_key
        # Same coefficient out of the Pascal-oracle closed form.
        assert binom2(e + m + 1, e) == 1
        assert rep.n == m + (1 << r) - 1


def test_theorem_a_boundary_pattern():
    for m in range(1, 25):
        rep = check_theorem_a(m)
        boundary = (m + 1) == (1 << (DimensionParams(m).r - 1))
        assert rep.passed == (not boundary), m
        assert ("not applicable" in rep.detail) == boundary
        # Off the boundary the key is t * (the corollary's key) x; on it,
        # t^(m+1) leaves the basis and the coefficient is 0.
        assert rep.key_coefficient == (not boundary), m


def test_theorem_a_v2_agrees_off_boundary():
    for m in range(1, 25):
        boundary = (m + 1) == (1 << (DimensionParams(m).r - 1))
        if boundary:
            with pytest.raises(ValueError):
                check_theorem_a_v2(m)
            continue
        rep = check_theorem_a_v2(m)
        assert rep.passed and rep.key_coefficient == 1
        assert rep.passed == check_theorem_a(m).passed
        e1 = (1 << DimensionParams(m).r) - m - 1
        assert (e1, m) in series_inv_ty(m, 1)


def test_corollary_sweep():
    for m in range(1, 25):
        rep = check_corollary(m)
        assert rep.passed and rep.key_coefficient == 1
        e = (1 << DimensionParams(m).r) - m - 2
        assert (e, m) in series_inv_ty(m, 2)


def test_prop_q_support_is_full_rectangle():
    # x0 = t0 + s turns (1+t0)^-1 (1+t0+x0)^-1 into (1+t0)^-1 (1+s)^-1,
    # whose support is every t0^i s^j with i < 2^q and j < 2m+2.
    for m in range(1, 13):
        q = DimensionParams(m).q
        ring = ring_y0(q, m)
        t0, s = ring.gens()
        one = ring.one()
        w = invert(one + t0) * invert(one + t0 + (t0 + s))
        expected = {
            (i, j) for i in range(1 << q) for j in range(2 * m + 2)
        }
        assert {exps for exps in w.terms} == expected
        assert prop_q_max_degree(m) == 2 * m + (1 << q)


def test_prop_q_matches_set_engine():
    # check_prop_q's key and coefficient in every degree up to the top + 2
    # against the support the set engine computes, for every m <= 64
    # (0.27 s on a 2-vCPU Xeon VM, Python 3.11.7).
    for m in range(1, 65):
        q = DimensionParams(m).q
        ring = ring_y0(q, m)
        t0, s = ring.gens()
        one = ring.one()
        w = invert(one + t0) * invert(one + t0 + (t0 + s))
        top = max(map(sum, w.terms))  # t0 and s both have degree 1
        assert prop_q_max_degree(m) == top, m
        for n in range(top + 3):
            part = sorted(w.homogeneous_part(n).terms)
            rep = check_prop_q(m, n)
            assert rep.key_monomial == (monomial_name(ring.gen_names, part[0]) if part else ""), (m, n)
            assert rep.key_coefficient == int(bool(part))


def test_check_prop_q_iff_below_bound():
    for m in (1, 2, 3, 6, 7):
        bound = 2 * m + (1 << DimensionParams(m).q)
        for n in range(bound + 3):
            rep = check_prop_q(m, n)
            assert rep.passed == (n <= bound), (m, n)
        assert f"2m+2^q = {bound}" in check_prop_q(m, bound).detail


# The Hurwitz-Radon number and the exponent loop as charclass defined them
# before the closed form _alpha(q): the reference _alpha is held to.


def _old_hurwitz_radon(n: int) -> int:
    """rho(n) = 8a + 2^b where n = 2^(4a+b) * odd."""
    v = (n & -n).bit_length() - 1
    a, b = divmod(v, 4)
    return 8 * a + (1 << b)


def _old_alpha_of(m: int) -> int:
    """The largest alpha >= 0 with (alpha = 0 or 2^(alpha-1) + 1 <= rho(m+1))."""
    rho = _old_hurwitz_radon(m + 1)
    alpha = 0
    while (1 << alpha) + 1 <= rho:
        alpha += 1
    return alpha


def test_hurwitz_radon_frozen_values():
    table = {1: 1, 2: 2, 3: 1, 4: 4, 8: 8, 12: 4, 16: 9, 32: 10,
             48: 9, 64: 12, 128: 16, 256: 17, 512: 18}
    for n, rho in table.items():
        assert _old_hurwitz_radon(n) == rho
        q = (n & -n).bit_length() - 1
        # The closed form is the least alpha with 2^alpha >= rho.
        assert charclass._alpha(q) == (rho - 1).bit_length(), n


def test_alpha_at_most_q():
    # m = 2^q - 1 is the least m whose m + 1 has 2-adic valuation q.
    for q in range(65):
        assert charclass._alpha(q) == _old_alpha_of((1 << q) - 1) <= q, q
    for m in range(301):
        assert charclass._alpha(DimensionParams(m).q) == _old_alpha_of(m), m


def test_hurwitz_comparison_keys():
    def tail(m):
        return check_prop_q(m, prop_q_max_degree(m)).detail.split("; ")[-1]

    assert tail(7) == "alpha = 3 <= q = 3: exponent bound 2^alpha-1 = 7 vs sharp 2^q-1 = 7"
    assert tail(15) == "alpha = 4 <= q = 4: exponent bound 2^alpha-1 = 15 vs sharp 2^q-1 = 15"
    # A case where the generic bound is strictly weaker than the sharp one.
    assert tail(31) == "alpha = 4 <= q = 5: exponent bound 2^alpha-1 = 15 vs sharp 2^q-1 = 31"


# -- direct-image oracles -------------------------------------------------------


def test_line_specs_shape():
    assert len(LINE_SPECS) == 16
    assert len(set(LINE_SPECS)) == 16


def test_product_oracle_small_grid():
    for m1 in range(3):
        for m2 in range(3):
            for n in range(1, 4):
                for spec in LINE_SPECS:
                    assert oracle_umkehr_product(m1, m2, n, spec), (m1, m2, n, spec)


def test_product_comparison_is_not_vacuous(monkeypatch):
    # With a wrong Euler class (the e^n term dropped) the shared rings must
    # make the product oracle fail somewhere, so agreement is informative.
    right = euler_line_tensor_quotient

    def wrong(e_line, n, ring_x):
        return right(e_line, n, ring_x) + ring_x.from_base_coefficients({0: e_line ** n})

    monkeypatch.setattr(charclass, "euler_line_tensor_quotient", wrong)
    _product_rings.cache_clear()
    try:
        failing = [
            (m1, m2, n, spec)
            for m1 in range(3)
            for m2 in range(3)
            for n in range(1, 4)
            for spec in LINE_SPECS
            if not oracle_umkehr_product(m1, m2, n, spec)
        ]
    finally:
        _product_rings.cache_clear()
    assert failing
    assert (1, 0, 1, ((1, 0), (0, 0))) in failing
    # A zero line class has e^n = 0 (n >= 1), so specs of two zero lines agree.
    assert all(spec != ((0, 0), (0, 0)) for *_, spec in failing)


def _euler_by_defining_sum(e, n, ring_x):
    # Multiplied out in the ring with x, from e lifted to it.
    e = ring_x.from_base_coefficients({0: e})
    x = ring_x.gen("x")
    want = ring_x.zero()
    for j in range(n + 1):
        want = want + e ** j * x ** (n - j)
    return want


def test_euler_recurrence_matches_defining_sum():
    # Visit n out of order, and again over fresh bases.
    def check():
        for m1 in range(4):
            for m2 in range(4):
                base = _product_base(m1, m2)[0]
                for n in (9, 2, 12, *range(1, 13)):
                    ring_x = ring_adjoin_x(base, n)
                    for bits in _LINE_BITS:
                        e = _line_class(base, bits)
                        got = euler_line_tensor_quotient(e, n, ring_x)
                        want = _euler_by_defining_sum(e, n, ring_x)
                        assert got.terms == want.terms, (m1, m2, n, bits)

    check()
    _product_base.cache_clear()
    check()


def test_oracle_euler_classes_with_shared_powers():
    # The grid's Euler classes read each column's line powers from one
    # list, extended as n grows: visit n out of order, so that lists
    # already longer than n are sliced, and again after clearing only the
    # grid-point cache, so that the column's lists are reused as they are.
    # In P^12 x P^m2, t1 and t1 + t2 live past n = 9, so their lists are
    # extended at n = 12.
    def check():
        for m1 in (0, 3, 12):
            for m2 in (0, 1, 6):
                for n in (9, 2, 12, *range(1, 13)):
                    base, eulers, _ = _product_rings(m1, m2, n)
                    for bits, got in eulers.items():
                        want = _euler_by_defining_sum(_line_class(base, bits), n, got.ring)
                        assert got == want, (m1, m2, n, bits)

    _product_base.cache_clear()
    _product_rings.cache_clear()
    check()
    _product_rings.cache_clear()
    check()


@pytest.mark.parametrize("m1_max, n_max", [(40, 1), (6, 3), (2, 12)])
def test_oracles_take_no_line_power_past_n_max(capsys, monkeypatch, m1_max, n_max):
    # Counts, not times: outside invert, a product in a base ring by a
    # nonzero class of degree 1 takes a power of a line class, l^(j-1) * l.
    # The powers are taken on demand, so none goes past l^n-max, however
    # far the line class lives before it vanishes (t1^40 != 0 in P^40).
    exponents, inverting = [], []
    real_mul, real_invert = RingElement.__mul__, charclass.invert

    def counting_invert(u):
        inverting.append(u)
        try:
            return real_invert(u)
        finally:
            inverting.pop()

    def counting_mul(self, other):
        base = self.ring.gen_names == ("t1", "t2")
        if base and not inverting and other and other == other.homogeneous_part(1):
            exponents.append(1 + max(map(sum, self.terms)))
        return real_mul(self, other)

    monkeypatch.setattr(charclass, "invert", counting_invert)
    monkeypatch.setattr(RingElement, "__mul__", counting_mul)
    caches = (_product_base, _product_rings, _dual_rings)
    for cache in caches:
        cache.cache_clear()
    argv = ["oracles", "--m1-max", str(m1_max), "--m2-max", "0", "--n-max", str(n_max),
            "--dual-k", "4", "--dual-n-max", "1"]
    try:
        assert main(argv) == 0
    finally:
        for cache in caches:
            cache.cache_clear()
    capsys.readouterr()
    assert max(exponents, default=1) <= n_max
    # Each power is taken once per column: t1^j for 2 <= j <= n-max, up to
    # the first zero one, t1^(m1+1).  t2 = 0 in P^0, and t1 + t2 = t1 is
    # the same element, so it shares t1's powers.
    assert len(exponents) == sum(min(m1, n_max - 1) for m1 in range(m1_max + 1))


def test_euler_class_with_x_truncated_below_the_rank():
    # x^k = 0 for k past x's bound drops the low powers of e from the sum.
    base = _product_base(3, 2)[0]
    for k in range(1, 6):
        ring_x = ring_adjoin_x(base, k)
        for n in range(8):
            for bits in _LINE_BITS:
                e = _line_class(base, bits)
                got = euler_line_tensor_quotient(e, n, ring_x)
                assert got == _euler_by_defining_sum(e, n, ring_x), (k, n, bits)


def test_product_rings_cache_out_of_order():
    fresh = {}
    for key in ((1, 1, 2), (2, 1, 2), (1, 1, 3)):
        _product_rings.cache_clear()
        base, eulers, _ = _product_rings(*key)
        fresh[key] = (
            base.name,
            {b: e.terms for b, e in eulers.items()},
            [oracle_umkehr_product(*key, spec) for spec in LINE_SPECS],
        )
    _product_rings.cache_clear()
    for key in ((1, 1, 2), (2, 1, 2), (1, 1, 2), (1, 1, 3)):
        results = [oracle_umkehr_product(*key, spec) for spec in LINE_SPECS]
        base, eulers, _ = _product_rings(*key)
        assert (base.name, {b: e.terms for b, e in eulers.items()}, results) == fresh[key]
    # The cache stays bounded however many grid points a sweep visits.
    for n in range(1, 12):
        oracle_umkehr_product(0, 0, n, LINE_SPECS[0])
    info = _product_rings.cache_info()
    assert info.currsize <= info.maxsize
    with pytest.raises(ValueError):
        oracle_umkehr_product(1, 1, 2, ((1, 2), (0, 0)))


def test_product_cache_entries_share_one_base():
    # A grid point's Euler classes and the column's inverse classes must
    # live over one base object, or every comparison reads False: revisit
    # a grid point after its column's entry may have been rebuilt, and
    # again after only the grid-point cache was cleared.
    _product_base.cache_clear()
    _product_rings.cache_clear()
    for key in ((0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 0, 1)):
        assert all(oracle_umkehr_product(*key, spec) for spec in LINE_SPECS), key
    _product_rings.cache_clear()
    assert all(oracle_umkehr_product(0, 0, 1, spec) for spec in LINE_SPECS)
    base, eulers, inverses = _product_rings(1, 2, 3)
    assert all(e.ring.base is base for e in eulers.values())
    assert all(w.ring is base for w in inverses.values())


def test_product_oracle_accepts_list_specs():
    for m1, m2, n in ((0, 0, 1), (2, 1, 3), (1, 2, 2)):
        for spec in LINE_SPECS:
            as_lists = [list(bits) for bits in spec]
            assert oracle_umkehr_product(m1, m2, n, as_lists) == oracle_umkehr_product(
                m1, m2, n, spec
            ), (m1, m2, n, spec)


@pytest.mark.parametrize(
    "spec", [((1, 2), (0, 0)), [[1, 0]], ((1, 0), (0, 1), (1, 1)), ((1, 0), 1), None]
)
def test_product_oracle_bad_spec_leaves_no_cache_entry(spec):
    _product_base.cache_clear()
    _product_rings.cache_clear()
    with pytest.raises(ValueError, match="line_spec"):
        oracle_umkehr_product(3, 4, 5, spec)
    assert _product_base.cache_info().currsize == 0
    assert _product_rings.cache_info().currsize == 0


def test_oracles_invert_once_per_column_line(capsys, monkeypatch):
    # Counts, not times: the product grid inverts 1 + l once per
    # (m1, m2, line class l), multiplies those inverses into the 16 specs'
    # classes, and builds one base ring per (m1, m2), the dual one of each
    # per k, however many n each serves.
    inverted, built = [], []
    real_invert, real_truncated = charclass.invert, charclass.ring_truncated

    def counting_invert(u):
        inverted.append(u.ring.name)
        return real_invert(u)

    def counting_truncated(name, gens):
        built.append(name)
        return real_truncated(name, gens)

    monkeypatch.setattr(charclass, "invert", counting_invert)
    monkeypatch.setattr(charclass, "ring_truncated", counting_truncated)
    for cache in (_product_base, _product_rings, _dual_rings):
        cache.cache_clear()
    argv = ["oracles", "--m1-max", "2", "--m2-max", "2", "--n-max", "4",
            "--dual-k", "4", "--dual-n-max", "3"]
    try:
        assert main(argv) == 0
    finally:
        for cache in (_product_base, _product_rings, _dual_rings):
            cache.cache_clear()
    capsys.readouterr()
    columns = [f"P{m1}xP{m2}" for m1 in range(3) for m2 in range(3)]
    assert sorted(inverted) == sorted(columns * len(_LINE_BITS) + ["W4"])
    assert sorted(built) == sorted(columns + ["W4"])


def test_oracles_multiply_in_the_rings_with_x_once_per_instance(capsys, monkeypatch):
    # Counts, not times: in a ring with x the product grid multiplies only
    # each instance's own e1*e2; the Euler classes take their powers of the
    # line class in the base.
    in_x_rings = []
    real_mul = RingElement.__mul__

    def counting_mul(self, other):
        if "x" in self.ring.gen_names:
            in_x_rings.append(self.ring.name)
        return real_mul(self, other)

    monkeypatch.setattr(RingElement, "__mul__", counting_mul)
    caches = (_product_base, _product_rings, _dual_rings)
    for cache in caches:
        cache.cache_clear()
    argv = ["oracles", "--m1-max", "2", "--m2-max", "2", "--n-max", "4",
            "--dual-k", "4", "--dual-n-max", "3"]
    try:
        assert main(argv) == 0
    finally:
        for cache in caches:
            cache.cache_clear()
    capsys.readouterr()
    assert len(in_x_rings) == 3 * 3 * 4 * len(LINE_SPECS)


def test_dual_oracle_small_grid():
    for k in (4, 8):
        for n in range(1, 9):
            assert oracle_umkehr_dual(k, n), (k, n)


def test_dual_comparison_is_not_vacuous():
    # The same setup with a deliberately wrong right-hand side must fail,
    # so agreement in the oracle is informative.
    base = ring_truncated("W4", [("w1", 1, 4), ("w2", 2, 4)])
    w1, w2 = base.gens()
    ring_t = ring_proj_bundle(base, w1, w2)
    t = ring_t.gen("t")
    c1 = ring_t.base_coefficient(t ** 3, 1)
    assert c1 == invert(base.one() + w1 + w2).homogeneous_part(2)
    assert c1 != invert(base.one() + w1).homogeneous_part(2)


def test_umkehr_px_examples():
    # The direct image along a trivial P^n fibre is the coefficient of x^n.
    base = ring_truncated("P2", [("u", 1, 3)])
    ring_x = ring_adjoin_x(base, 3)
    u = ring_x.gen("u")
    x = ring_x.gen("x")
    assert ring_x.base_coefficient(x ** 3, 3) == base.one()
    assert ring_x.base_coefficient(u * x ** 3 + x, 3) == base.gen("u")
    assert ring_x.base_coefficient(u * x, 3) == base.zero()
    with pytest.raises(RingError):
        ring_x.base_coefficient(base.gen("u"), 3)  # not an element of ring_x
    # Base generators of two radices: the direct image reads x's digit alone.
    base = ring_truncated("B", [("u", 1, 3), ("v", 2, 2)])
    ring_x = ring_adjoin_x(base, 4)
    u, v, x = ring_x.gens()
    p = u * x ** 2 + v * x ** 2 + x ** 4 + u * u * v
    assert ring_x.base_coefficient(p, 2) == base.gen("u") + base.gen("v")
    assert ring_x.base_coefficient(p, 4) == base.one()
    assert ring_x.base_coefficient(p, 1) == base.zero()
    assert ring_x.base_coefficient(p, 0) == base.gen("u") ** 2 * base.gen("v")
    with pytest.raises(RingError):
        base.base_coefficient(base.gen("u"), 0)  # base is not an extension


def test_euler_class_of_tensor():
    base = ring_truncated("P3", [("u", 1, 4)])
    ring_x = ring_adjoin_x(base, 2)
    u = base.gen("u")
    e = euler_line_tensor_quotient(u, 2, ring_x)
    assert e == ring_x.from_base_coefficients({2: base.one(), 1: u, 0: u * u})
    ux, x = ring_x.gens()
    assert e == x ** 2 + ux * x + ux ** 2
    assert euler_line_tensor_quotient(base.zero(), 2, ring_x) == x ** 2
    with pytest.raises(RingError):
        euler_line_tensor_quotient(u * u, 2, ring_x)


def test_euler_class_needs_a_line_class_of_the_base():
    base = ring_truncated("P2xP1", [("t1", 1, 3), ("t2", 1, 2)])
    ring_x = ring_adjoin_x(base, 3)
    t1, t2 = base.gens()
    # A class of ring_x is refused, even one with no x term.
    for e_line in (*ring_x.gens(), ring_x.gen("t1") + ring_x.gen("x"), ring_x.zero()):
        with pytest.raises(RingError, match="base of ring_x"):
            euler_line_tensor_quotient(e_line, 3, ring_x)
    # So is a class of another ring, even an equal presentation of the base.
    twin = ring_truncated("P2xP1", [("t1", 1, 3), ("t2", 1, 2)])
    with pytest.raises(RingError, match="base of ring_x"):
        euler_line_tensor_quotient(twin.gen("t1"), 3, ring_x)
    with pytest.raises(RingError, match="degree 1"):
        euler_line_tensor_quotient(t1 * t2, 3, ring_x)
    with pytest.raises(RingError, match="degree 1"):
        euler_line_tensor_quotient(base.one(), 3, ring_x)
    # A ring without x on top of a base is refused.
    with pytest.raises(RingError, match="generator x"):
        euler_line_tensor_quotient(t1, 3, base)
    ring_xt = ring_truncated("XT", [("x", 1, 4), ("t", 1, 3)])
    with pytest.raises(RingError, match="generator x"):
        euler_line_tensor_quotient(ring_xt.gen("t"), 3, ring_xt)
    bundle = ring_proj_bundle(base, t1, t1 * t2)
    with pytest.raises(RingError, match="generator x"):
        euler_line_tensor_quotient(t1, 3, bundle)
    # So is an x bound by a square relation, as in ring_yhat: x**2 = t*x + y.
    yhat = ring_yhat(3)
    for n in (1, 3):
        with pytest.raises(RingError, match="ring_x must truncate x"):
            euler_line_tensor_quotient(yhat.base.gen("t"), n, yhat)


# -- report plumbing -------------------------------------------------------------


def test_report_json_key_order():
    rep = check_theorem_b(2)
    assert list(rep.to_json_dict()) == [
        "m", "r", "q", "n", "check", "key_monomial", "coefficient",
        "passed", "detail",
    ]
    assert rep.to_json_dict()["coefficient"] == rep.key_coefficient


def test_all_checks_shape_and_frozen_keys():
    reports = all_checks(2)
    assert [rep.check for rep in reports] == [
        "prelude", "theorem_b", "theorem_a", "theorem_a_v2",
        "corollary", "prop_q",
    ]
    assert all(rep.passed for rep in reports)
    assert [rep.key_monomial for rep in reports] == [
        "t^2", "y^2*x", "t*y^2*x", "t*y^2", "y^2", "s^5"
    ]


def test_only_the_prelude_builds_a_ring(monkeypatch, capsys):
    # Every other report names its monomials from exponent tuples, so
    # all_checks builds the prelude's P^m and table's checks build nothing.
    built = []
    init = RingPresentation.__init__

    def counting_init(self, name, *args, **kwargs):
        built.append(name)
        init(self, name, *args, **kwargs)

    monkeypatch.setattr(RingPresentation, "__init__", counting_init)
    for m in (1, 2, 3, 6, 7, 12, 64):
        built.clear()
        all_checks(m)
        assert built == [f"P{m}"], m
    built.clear()
    assert main(["table", "--m-max", "20"]) == 0
    capsys.readouterr()
    assert built == []


def test_all_checks_boundary_substitution():
    reports = {rep.check: rep for rep in all_checks(3)}
    assert not reports["theorem_a"].passed
    assert not reports["theorem_a_v2"].passed
    assert reports["theorem_a_v2"].detail == "not applicable: m+1 = 2^(r-1)"
    assert reports["theorem_b"].passed
    assert reports["corollary"].passed
    assert reports["prop_q"].passed


def test_expected_outcome_matches_reports():
    for m in range(1, 25):
        for rep in all_checks(m):
            assert rep.passed == expected_outcome(rep.check, m), (m, rep.check)
