"""Coefficient-engine tests.

Every series support is cross-checked against the Pascal-triangle oracles
in conftest, and each checker's key coefficient is re-derived from those
oracles, so the ring engine and the closed-form routes must agree.
"""

from __future__ import annotations

import pytest
from conftest import binom2, series_inv_t, series_inv_ty
from hypothesis import given, settings
from hypothesis import strategies as st

from parlines.charclass import (
    LINE_SPECS,
    BundleClass,
    DimensionParams,
    all_checks,
    alpha_of,
    check_corollary,
    check_prelude,
    check_prop_q,
    check_theorem_a,
    check_theorem_a_v2,
    check_theorem_b,
    euler_line_tensor_quotient,
    expected_outcome,
    hurwitz_comparison,
    hurwitz_radon,
    oracle_umkehr_dual,
    oracle_umkehr_product,
    prop_q_max_degree,
    umkehr_proj_bundle,
    umkehr_px,
    w_minus,
)
from parlines.f2ring import (
    RingElement,
    RingError,
    invert,
    ring_adjoin_x,
    ring_proj_bundle,
    ring_truncated,
    ring_y0,
    ring_yhat,
)
from parlines import charclass
from parlines.charclass import _LINE_BITS, _line_class, _product_rings
from parlines.charclass import _INV_TY, _S, _T_S, _W, _inverse_rows, _part, _prop_q_series


# -- binomials and dimension bookkeeping --------------------------------------


def test_binom_negative_identity():
    # Row j of the table is (1+t)^-(j+1), whose t^i coefficient is
    # C(-(j+1), i) = (-1)^i C(i+j, i); mod 2 the sign drops, and by Lucas
    # C(i+j, i) is odd iff i and j share no binary digit.
    for r in range(1, 7):
        rows = _inverse_rows(r)
        assert len(rows) == 1 << r
        for j, row in enumerate(rows):
            assert row >> (1 << r) == 0
            for i in range(1 << r):
                assert row >> i & 1 == binom2(i + j, i) == int(i & j == 0), (r, i, j)
        # C(-1, i) = (-1)^i is odd for every i, and (1+t)^(2^r) = 1 + t^(2^r).
        assert rows[0] == (1 << (1 << r)) - 1 and rows[-1] == 1


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


# -- series supports: the row table, set engine and Pascal oracle --------------


SERIES = {"inv_ty": _INV_TY, "w": _W, "S": _S, "t*S": _T_S}


def table_element(m: int, series, ring) -> RingElement:
    """A series read from the table, as a set-engine element of ``ring_yhat(m)``."""
    return RingElement(ring, frozenset(e for d in range(3 * m + 2) for e in _part(m, series, d)))


def set_engine_series(m: int) -> dict:
    """The four series through the generic set engine: ring_yhat + invert."""
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
        for mo in ref.support():
            by_degree.setdefault(mo.degree(), []).append(mo.exps)
        for d in range(3 * m + 2):
            got = _part(m, SERIES[name], d)
            assert got == by_degree.get(d, []), (m, name, d)
            assert set(got) == {e for e in closed[name] if e[0] + 2 * e[1] + e[2] == d}, (m, name, d)


@pytest.mark.parametrize("m", [*range(1, 11), 63, 64, 127, 128])
def test_series_supports_match_oracle(m):
    inv_ty, w = (table_element(m, SERIES[k], ring_yhat(m)) for k in ("inv_ty", "w"))
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
    s, w, inv_ty, t_s = (table_element(m, SERIES[k], ring) for k in ("S", "w", "inv_ty", "t*S"))
    one = ring.one()
    t, y, x = ring.gens()
    assert s == w * (one + x)
    assert inv_ty * (one + t + y) == one
    assert w * (one + t) * (one + t + y) == one
    assert inv_ty * (one + x) * (one + t + x) == one
    assert t_s == t * s


def test_every_m_of_one_r_reads_one_table():
    _inverse_rows.cache_clear()
    try:
        for m in range(63, 127):  # r = 7: 64 <= m+1 < 128
            all_checks(m)
        info = _inverse_rows.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits > 0
        # A long sweep keeps the cache bounded.
        for m in (1, 2, 5, 10, 20, 40, 80, 160):
            check_corollary(m)
        info = _inverse_rows.cache_info()
        assert info.currsize <= info.maxsize
    finally:
        _inverse_rows.cache_clear()


def test_reports_read_no_bit_past_t_m(monkeypatch):
    # Setting every table bit above t^m must leave all reports of m as they are.
    for m in (1, 2, 3, 6, 12, 63, 64):
        want = all_checks(m)
        rows = _inverse_rows(DimensionParams(m).r)
        junk = ((1 << len(rows)) - 1) ^ ((1 << (m + 1)) - 1)
        monkeypatch.setattr(charclass, "_inverse_rows", lambda r, rows=rows: tuple(u | junk for u in rows))
        assert all_checks(m) == want, m
        monkeypatch.undo()


def test_corrupted_table_fails_the_multiply_back(monkeypatch):
    right = charclass._prefix_xor
    for flip in (1, 1 << 5):
        monkeypatch.setattr(charclass, "_prefix_xor", lambda a, width, flip=flip: right(a, width) ^ flip)
        _inverse_rows.cache_clear()
        try:
            with pytest.raises(RingError, match="series routes for the inverse class disagree"):
                check_theorem_b(20)
        finally:
            monkeypatch.undo()
            _inverse_rows.cache_clear()
    assert check_theorem_b(20).passed


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


def test_prop_q_rows_match_set_engine():
    for m in range(1, 65):
        q = DimensionParams(m).q
        ring = ring_y0(q, m)
        t0, s = ring.gens()
        one = ring.one()
        w = invert(one + t0) * invert(one + t0 + (t0 + s))
        rows = _prop_q_series(m)[1]
        assert len(rows) == 1 << q
        assert all(row >> (2 * m + 2) == 0 for row in rows)
        got = {(a, b) for a, row in enumerate(rows) for b in range(2 * m + 2) if row >> b & 1}
        assert got == set(w.terms), m
        assert prop_q_max_degree(m) == w.max_nonzero_degree()
        if m <= 16:
            for n in range(w.max_nonzero_degree() + 3):
                support = w.homogeneous_part(n).support()
                rep = check_prop_q(m, n)
                assert rep.key_monomial == (str(support[0]) if support else ""), (m, n)
                assert rep.key_coefficient == int(bool(support))


def test_check_prop_q_iff_below_bound():
    for m in (1, 2, 3, 6, 7):
        bound = 2 * m + (1 << DimensionParams(m).q)
        for n in range(bound + 3):
            rep = check_prop_q(m, n)
            assert rep.passed == (n <= bound), (m, n)
        assert f"2m+2^q = {bound}" in check_prop_q(m, bound).detail


def test_hurwitz_radon_frozen_values():
    table = {1: 1, 2: 2, 3: 1, 4: 4, 8: 8, 12: 4, 16: 9, 32: 10,
             48: 9, 64: 12, 128: 16, 256: 17, 512: 18}
    for n, rho in table.items():
        assert hurwitz_radon(n) == rho
    with pytest.raises(ValueError):
        hurwitz_radon(0)


def test_alpha_at_most_q():
    for m in range(301):
        assert alpha_of(m) <= DimensionParams(m).q


def test_hurwitz_comparison_keys():
    hc = hurwitz_comparison(7)
    assert hc == {
        "m": 7,
        "q": 3,
        "rho": 8,
        "alpha": 3,
        "remark_exponent": 7,
        "sharp_exponent": 7,
        "alpha_le_q": True,
    }
    # A case where the generic bound is strictly weaker than the sharp one.
    hc = hurwitz_comparison(15)
    assert hc["alpha"] == 4 and hc["q"] == 4
    hc = hurwitz_comparison(31)
    assert hc["alpha"] < hc["q"] and hc["alpha_le_q"]


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
        return right(e_line, n, ring_x) + e_line ** n

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


def test_euler_recurrence_matches_defining_sum():
    for m1 in range(4):
        for m2 in range(4):
            base = ring_truncated(
                f"P{m1}xP{m2}", [("t1", 1, m1 + 1), ("t2", 1, m2 + 1)]
            )
            for n in range(1, 7):
                ring_x = ring_adjoin_x(base, n)
                x = ring_x.gen("x")
                for bits in _LINE_BITS:
                    e = _line_class(ring_x, bits)
                    want = ring_x.zero()
                    for j in range(n + 1):
                        want = want + e ** j * x ** (n - j)
                    got = euler_line_tensor_quotient(e, n, ring_x)
                    assert got.terms == want.terms, (m1, m2, n, bits)


def test_product_rings_cache_out_of_order():
    fresh = {}
    for key in ((1, 1, 2), (2, 1, 2), (1, 1, 3)):
        _product_rings.cache_clear()
        base, eulers = _product_rings(*key)
        fresh[key] = (
            base.name,
            {b: e.terms for b, e in eulers.items()},
            [oracle_umkehr_product(*key, spec) for spec in LINE_SPECS],
        )
    _product_rings.cache_clear()
    for key in ((1, 1, 2), (2, 1, 2), (1, 1, 2), (1, 1, 3)):
        results = [oracle_umkehr_product(*key, spec) for spec in LINE_SPECS]
        base, eulers = _product_rings(*key)
        assert (base.name, {b: e.terms for b, e in eulers.items()}, results) == fresh[key]
    # The cache stays bounded however many grid points a sweep visits.
    for n in range(1, 12):
        oracle_umkehr_product(0, 0, n, LINE_SPECS[0])
    info = _product_rings.cache_info()
    assert info.currsize <= info.maxsize
    with pytest.raises(ValueError):
        oracle_umkehr_product(1, 1, 2, ((1, 2), (0, 0)))


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
    c1 = umkehr_proj_bundle(t ** 3)
    assert c1 == invert(base.one() + w1 + w2).homogeneous_part(2)
    assert c1 != invert(base.one() + w1).homogeneous_part(2)


def test_umkehr_px_examples():
    base = ring_truncated("P2", [("u", 1, 3)])
    ring_x = ring_adjoin_x(base, 3)
    u = ring_x.gen("u")
    x = ring_x.gen("x")
    assert umkehr_px(x ** 3, 3) == base.one()
    assert umkehr_px(u * x ** 3 + x, 3) == base.gen("u")
    assert umkehr_px(u * x, 3) == base.zero()
    with pytest.raises(RingError):
        umkehr_px(base.gen("u"), 3)  # not an extension-ring element


def test_euler_class_of_tensor():
    base = ring_truncated("P3", [("u", 1, 4)])
    ring_x = ring_adjoin_x(base, 2)
    u = ring_x.gen("u")
    x = ring_x.gen("x")
    e = euler_line_tensor_quotient(u, 2, ring_x)
    assert e == x ** 2 + u * x + u ** 2
    assert euler_line_tensor_quotient(ring_x.zero(), 2, ring_x) == x ** 2
    with pytest.raises(RingError):
        euler_line_tensor_quotient(u * u, 2, ring_x)


def test_bundle_class_validation():
    base = ring_truncated("P3", [("u", 1, 4)])
    u = base.gen("u")
    b = BundleClass(2, base.one() + u + u * u)
    assert w_minus(b) * b.total_sw == base.one()
    with pytest.raises(RingError):
        BundleClass(1, base.one() + u * u)  # class above the rank
    with pytest.raises(RingError):
        BundleClass(2, u)  # constant term 0
    with pytest.raises(ValueError):
        BundleClass(-1, base.one())


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
