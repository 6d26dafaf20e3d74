"""Witness-search tests.

The slow multi-start paths get small restart budgets here; the full-scale
runs with the contract defaults live in the acceptance suite.
"""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import exact_collinear_record_dict, linear_r2_r3, reference_eval_map
from hypothesis import given, settings
from hypothesis import strategies as st

from parlines import witness
from parlines.charclass import DimensionParams
from parlines.jsonio import canonical_json
from parlines.maps import MapDescriptor, builtin_map, eval_map, map_digest
from parlines.witness import (
    CASES,
    CollinearityAmbiguity,
    Configuration,
    SearchConfig,
    WitnessRecord,
    canonical_case,
    collinear_residual,
    estimate_singularity_dim,
    find_1d,
    lin_dep_residual,
    parallel_residual,
    record_points,
    search,
    theorem_guarantee,
    verify_witness,
    _distances,
    _residual_from_points,
    _unit,
)


# -- residuals ----------------------------------------------------------------


def test_parallel_residual_values():
    assert parallel_residual([1.0, 0.0], [2.0, 0.0]) == 0.0
    assert parallel_residual([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert parallel_residual([1.0, 0.0], [1.0, 1.0]) == 0.5
    assert parallel_residual([1.0, 0.0], [-3.0, 0.0]) == 0.0


def test_parallel_residual_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        base = parallel_residual(a, b)
        assert parallel_residual(4.0 * a, -8.0 * b) == base
        assert 0.0 <= base <= 1.0


def test_parallel_residual_zero_vector_convention():
    assert parallel_residual([0.0, 0.0], [1.0, 2.0]) == 0.0
    assert parallel_residual([1e-14, 0.0], [0.0, 1.0]) == 0.0


def test_residual_rows_keeps_overflow_to_itself():
    # Chords of size 1e200 overflow the products inside the kernel, which
    # scales them; no floating-point warning may leave it.
    imgs = np.random.default_rng(3).standard_normal((6, 4, 3)) * 1e200
    got = witness._residual_rows("parallel_b", imgs)
    want = [parallel_residual(im[1] - im[0], im[3] - im[2]) for im in imgs]
    assert got.tolist() == want
    assert ((0.0 <= got) & (got <= 1.0)).all()


def test_collinear_residual_detects_planarity():
    # Any 4 points in a plane give zero, whether truly on a line ...
    on_line = [np.array([s, 2.0 * s, -s, 0.0]) for s in (0.0, 1.0, 2.5, -3.0)]
    assert collinear_residual(*on_line) <= 1e-30
    # ... or merely coplanar; leaving the plane makes it positive.
    coplanar = [np.array([0.0, 0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]),
                np.array([0.0, 1.0, 0.0, 0.0]), np.array([1.0, 2.0, 0.0, 0.0])]
    assert collinear_residual(*coplanar) <= 1e-30
    off_plane = coplanar[:3] + [np.array([0.0, 0.0, 1.0, 0.0])]
    assert collinear_residual(*off_plane) > 0.1


def test_collinear_residual_zero_under_permutation():
    pts = [np.array([float(s), 3.0 - s, 2.0 * s]) for s in (0.0, 1.0, 2.0, 4.0)]
    pts[3] = pts[3] + np.array([0.0, 5.0, 0.0])  # coplanar, not collinear
    rng = np.random.default_rng(1)
    for _ in range(5):
        perm = rng.permutation(4)
        assert collinear_residual(*(pts[i] for i in perm)) <= 1e-28


def test_lin_dep_residual_low_codomain_is_zero():
    f = builtin_map("moment", {"m": 2, "n": 2})  # codomain R^3
    pts = np.eye(3)[:3]
    assert lin_dep_residual(pts[0], pts[1], pts[2], [1.0, 1.0, 1.0], f) == 0.0


def test_lin_dep_residual_vandermonde():
    # (1, t, t^2, t^3): distinct parameters give independent lifts ...
    cubic = MapDescriptor(
        1, 4,
        (((1.0, (0,)),), ((1.0, (1,)),), ((1.0, (2,)),), ((1.0, (3,)),)),
    )
    ts = [np.array([s]) for s in (-1.0, 0.0, 1.0, 2.0)]
    assert lin_dep_residual(*ts, f=cubic) > 1e-4
    # ... while a lifted affine line stays rank 2, hence dependent.
    lifted_line = MapDescriptor(
        1, 4,
        (((1.0, (0,)),), ((1.0, (1,)),), ((2.0, (1,)),), ((3.0, (1,)), (1.0, (0,)))),
    )
    assert lin_dep_residual(*ts, f=lifted_line) <= 1e-25


def _old_parallel_residual(a, b, zero_eps=1e-13):
    # The one-pair formula the kernel replaced, kept as its reference.
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a2 = float(a @ a)
    b2 = float(b @ b)
    if min(a2, b2) <= zero_eps * zero_eps:
        return 0.0
    ab = float(a @ b)
    val = (a2 * b2 - ab * ab) / (a2 * b2)
    return min(1.0, max(0.0, val))


def _old_collinear_residual(q0, q1, q2, q3, zero_eps=1e-13):
    q = np.asarray((q0, q1, q2, q3), dtype=float)
    s = np.linalg.svd((q[1:] - q[0]).T, compute_uv=False)
    if s.size < 3 or s[0] <= zero_eps:
        return 0.0
    return float((s[2] / s[0]) ** 2)


def _old_lin_dep_residual(imgs, zero_eps=1e-13):
    norms = np.linalg.norm(imgs, axis=1)
    if np.min(norms) <= zero_eps:
        return 0.0
    s = np.linalg.svd((imgs / norms[:, None]).T, compute_uv=False)
    if s.size < 4 or s[0] <= zero_eps:
        return 0.0
    return float((s[3] / s[0]) ** 2)


def _old_residual(case, f, pts):
    imgs = eval_map(f, np.asarray(pts, dtype=float))
    if case == "linear_dependence":
        return _old_lin_dep_residual(imgs)
    if case == "collinear":
        return _old_collinear_residual(*imgs)
    return _old_parallel_residual(imgs[1] - imgs[0], imgs[3] - imgs[2])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.sampled_from(["parallel_b", "parallel_a", "line_1d", "collinear", "linear_dependence"]),
)
def test_residual_kernel_bitwise_equals_one_row_formulas(d, c, seed, rows, case):
    # Every row of a stack, degenerate ones included, gets the bits the old
    # one-row formula gives its four points alone.
    rng = np.random.default_rng(seed)
    f = builtin_map("random_poly", {"m": d - 1, "n": c - 1, "degree": 2}, seed=seed)
    pts = rng.standard_normal((rows, 4, d)) * rng.choice([1e-7, 1.0, 30.0], (rows, 1, 1))
    pts[::3, 1] = pts[::3, 0]  # a zero chord
    pts[1::4, 3] = pts[1::4, 0]  # repeated points
    got = _residual_from_points(case, f, pts)
    want = np.array([_old_residual(case, f, p) for p in pts])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    one = [lin_dep_residual(*p, f=f) if case == "linear_dependence" else
           collinear_residual(*eval_map(f, p)) if case == "collinear" else
           parallel_residual(*(eval_map(f, p)[1::2] - eval_map(f, p)[::2]))
           for p in pts]
    assert np.array(one).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_non_finite_residuals_are_nan_not_zero():
    # Overflowing norms used to be clamped to 0, a false witness; an SVD of
    # inf or NaN used to abort the search.  No warning may escape either.
    assert math.isnan(parallel_residual([math.inf, 0.0], [1.0, 0.0]))
    assert math.isnan(parallel_residual([math.nan, 0.0], [0.0, 0.0]))
    # Finite chords whose squared norms overflow are scaled first and get
    # their true residual: these meet at angles 1e-200, 90 and 45 degrees.
    assert parallel_residual([1e200, 0.0], [1e200, 1.0]) == 0.0
    assert parallel_residual([1e200, 0.0], [0.0, 1e200]) == 1.0
    assert parallel_residual([1e200, 1e200], [1e200, 0.0]) == 0.5
    # A zero chord gives 0, also where the other chord's norm overflows.
    assert parallel_residual([0.0, 0.0], [1e150, 1.0]) == 0.0
    assert parallel_residual([0.0, 0.0], [1e200, 1.0]) == 0.0
    q = np.eye(4)[:, :3]
    assert math.isnan(collinear_residual(q[0], q[1], q[2], [math.inf, 0.0, 0.0]))
    # Finite images whose difference overflows.
    assert math.isnan(collinear_residual([-1e308, 0, 0], q[1], q[2], [1e308, 0, 0]))
    huge = MapDescriptor(2, 5, (((1e308, (4, 0)), (1e308, (0, 4))),) + tuple(
        ((1.0, e),) for e in ((1, 0), (0, 1), (1, 1), (2, 1))))
    # The first row's images overflow; near 0 they stay finite.
    pts = np.array([[2.0, 0.0], [0.1, 0.2], [0.3, -0.1], [0.0, 0.5]]) * [[[1.0]], [[1e-70]]]
    for case in ("parallel_b", "collinear", "linear_dependence"):
        got = _residual_from_points(case, huge, pts)
        assert math.isnan(got[0]) and math.isfinite(got[1])


def test_lin_dep_residual_survives_overflowing_norms():
    # Scaling by 2**600 is exact, and the images' sums of squares overflow;
    # the normalised images, and so the residual, are those of the unscaled map.
    f = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    big = MapDescriptor(f.domain_dim, f.codomain_dim,
                        tuple(tuple((c * 2.0**600, e) for c, e in coord) for coord in f.coords))
    pts = np.random.default_rng(5).standard_normal((20, 4, 2))
    pts[::5, 2] = pts[::5, 0]  # dependent rows, residual 0
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.linalg.norm(eval_map(big, pts[0]), axis=1)).any()
    want = _residual_from_points("linear_dependence", f, pts)
    got = _residual_from_points("linear_dependence", big, pts)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_parallel_residual_survives_overflowing_norms():
    # As for lindep: scaling by 2**600 is exact, and the squared chord norms
    # overflow; scaled by their largest entries, the chords give the
    # residual of the unscaled map.
    f = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    big = MapDescriptor(f.domain_dim, f.codomain_dim,
                        tuple(tuple((c * 2.0**600, e) for c, e in coord) for coord in f.coords))
    pts = np.random.default_rng(5).standard_normal((20, 4, 2))
    pts[::5, 3] = pts[::5, 2]  # a zero chord, residual 0
    with np.errstate(over="ignore"):
        imgs = eval_map(big, pts[1])
        assert not np.isfinite(np.linalg.norm(imgs[1::2] - imgs[::2], axis=1)).any()
    for case in ("parallel_b", "parallel_a"):
        want = _residual_from_points(case, f, pts)
        got = _residual_from_points(case, big, pts)
        assert np.isfinite(got).all() and (got[::5] == 0).all()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# -- configurations -------------------------------------------------------------


def test_record_points_collinear_example():
    x = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    p1, p2, p3, p4 = record_points("collinear", Configuration(x, u, v, 0.25))
    assert np.allclose(p1, [1.0, 0.25, 0.0])
    assert np.allclose(p2, [1.0, -0.25, 0.0])
    assert np.allclose(p3, [-1.0, 0.0, 0.25])
    assert np.allclose(p4, [-1.0, 0.0, -0.25])


def test_configuration_validation():
    e = np.ones(2)
    with pytest.raises(ValueError):
        Configuration(e, e, e, 0.5)
    with pytest.raises(ValueError):
        Configuration(e, e, e, 0.0)
    with pytest.raises(ValueError):
        Configuration(e, np.ones(3), e, 0.25)


def test_configuration_json_round_trip():
    c = Configuration(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                      np.array([0.5, 0.5]), 0.125)
    c2 = Configuration.from_json_dict(c.to_json_dict())
    assert np.array_equal(c.x, c2.x) and np.array_equal(c.v, c2.v)
    assert c2.delta == 0.125


def test_canonical_case_aliases():
    assert canonical_case("a") == "parallel_a"
    assert canonical_case("b") == "parallel_b"
    assert canonical_case("lindep") == "linear_dependence"
    assert canonical_case("collinear") == "collinear"
    with pytest.raises(ValueError):
        canonical_case("diagonal")
    assert set(CASES) == {
        "parallel_b", "parallel_a", "collinear", "linear_dependence", "line_1d"
    }


# -- objectives ------------------------------------------------------------------


def test_record_points_residual_matches_objective_bitwise():
    f = builtin_map("random_poly", {"m": 2, "n": 3, "degree": 2}, seed=3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        w = rng.standard_normal(6)
        w /= np.linalg.norm(w)
        c = Configuration(x, w[:3], w[3:], 0.25)
        pts = record_points("parallel_b", c)
        imgs = eval_map(f, np.stack(pts))
        single_path = _residual_from_points("parallel_b", f, [pts])[0]
        assert parallel_residual(imgs[1] - imgs[0], imgs[3] - imgs[2]) == single_path
        # Case b's pairing {x+du, -x+dv}, {x-du, -x-dv} and case a's
        # {x±du}, {-x±dv}, taken in the collinear order, give the record's
        # chords bit for bit.
        raw = eval_map(f, np.stack(record_points("collinear", c)))
        assert parallel_residual(raw[0] - raw[2], raw[1] - raw[3]) == single_path
        assert parallel_residual(raw[0] - raw[1], raw[2] - raw[3]) == \
            _residual_from_points("parallel_a", f, [record_points("parallel_a", c)])[0]

    # Every search case stores exactly the residual that verify_witness
    # recomputes, because both evaluate the same path on the same points.
    f = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    for case in ("parallel_b", "parallel_a", "collinear", "linear_dependence"):
        rec = search(f, case, SearchConfig(restarts=2, max_iters=60, seed=4))
        assert verify_witness(rec, f).residual == rec.residual


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from([1e-7, 1.0, 1e5]))
def test_unit_and_record_points_bitwise(d, seed, scale):
    # The objective's cheap forms give the bits of the forms they replace:
    # np.linalg.norm for the projection, the collinear order for the points.
    x, u, v = np.random.default_rng(seed).standard_normal((3, d)) * scale
    units, tiny = _unit(np.array([x, u, v]))
    assert np.array_equal(units[0], x / float(np.linalg.norm(x)))
    assert not tiny.any()
    assert _unit(np.full((1, d), 1e-13))[1].tolist() == [True]
    c = Configuration(*units, 0.25)
    du, dv = 0.25 * c.u, 0.25 * c.v
    p1, p2, p3, p4 = c.x + du, c.x - du, -c.x + dv, -c.x - dv
    layouts = {
        "parallel_b": [p3, p1, p4, p2],
        "parallel_a": [p2, p1, p4, p3],
        "collinear": [p1, p2, p3, p4],
        "linear_dependence": [p1, p2, p3, p4],
    }
    for case, expected in layouts.items():
        got = record_points(case, c)
        assert len(got) == 4
        assert np.array_equal(np.array(got).view(np.int64), np.array(expected).view(np.int64))
    with pytest.raises(ValueError, match="no configuration layout"):
        record_points("line_1d", c)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.sampled_from([1e-7, 1.0, 1e150]),
       st.sampled_from([(), (0, 1), (2, 3), (0, 3), (1, 2)]))
def test_distances_match_linalg_norm_bitwise(d, seed, scale, same):
    # Each entry of the table is np.linalg.norm of its pair's difference to
    # the bit, also for coincident points and near 1e150.
    pts = np.random.default_rng(seed).standard_normal((4, d)) * scale
    if same:
        pts[same[1]] = pts[same[0]]
    expected = [[float(np.linalg.norm(p - q)) for q in pts] for p in pts]
    assert _distances(pts).view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


def _witness_outputs() -> list:
    """Canonical JSON of searches that hit at restart 0, hit later and miss,
    and of a singularity estimate."""
    fb = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    fa = builtin_map("random_poly", {"m": 2, "n": 5, "degree": 2}, seed=7)
    cfg = SearchConfig(restarts=2, seed=1)
    records = [search(f, case, cfg) for f, case in (
        (fb, "parallel_b"), (fa, "parallel_a"), (fb, "collinear"), (fb, "linear_dependence"))]
    # Restart 3 is the first within tol; restarts 0-2 run every step.
    later = search(fb, "b", SearchConfig(restarts=4, seed=31))
    # No restart gets within tol in 3 steps, so the pick is the minimum over
    # all three.
    miss = search(fb, "collinear", SearchConfig(restarts=3, max_iters=3))
    assert all(rec.restarts_used == 1 for rec in records)
    assert later.restarts_used == 4 and not miss.found
    est = estimate_singularity_dim(fb, records[2], n_samples=16, cfg=SearchConfig())
    assert est.samples == 16
    return [rec.canonical() for rec in (*records, later, miss)] + \
        [canonical_json(est.to_json_dict())]


def test_records_identical_under_reference_eval_map(monkeypatch):
    # Same machine, same run: the power-table eval_map and the broadcast
    # formula must drive every solver step to the same bits.  (Frozen
    # golden bytes would not do, as numpy's SIMD pow differs between CPUs.)
    fast = _witness_outputs()
    calls = []

    def reference(f, points):
        calls.append(len(points))  # points evaluated
        return reference_eval_map(f, points)

    monkeypatch.setattr(witness, "eval_map", reference)
    assert _witness_outputs() == fast
    # 9,580 points were evaluated here when this floor was last measured.
    assert sum(calls) > 5_000


# -- the batched Gauss-Newton ------------------------------------------------------


def _regions(zs):
    """A system of R^2 told apart by z[0]: (z - (1, 1), 0) left of 20,
    (z - (30, 0), 1), which has no root, up to 50, and NaN beyond."""
    valley = (zs[:, 0] > 20)[:, None]
    out = np.where(valley, np.column_stack([zs[:, 0] - 30, zs[:, 1], np.ones(len(zs))]),
                   np.column_stack([zs - 1.0, np.zeros(len(zs))]))
    out[zs[:, 0] > 50] = np.nan
    return out


def _same(vals):
    return vals


def _sum_of_squares(zs, vals):
    out = np.sum(vals**2, axis=1)
    out[np.isnan(out)] = 1.5
    return out


def _minimize_regions(starts, steps=40, prune=False):
    starts = np.asarray(starts, dtype=float)
    return witness.minimize(_regions, _same, _sum_of_squares, lambda i: starts[i], len(starts),
                            steps, 1e-20, prune=prune)


def test_minimize_lanes_stop_for_different_reasons():
    res = _minimize_regions([(1.0, 1.0), (-1.0, 3.0), (30.3, 0.4), (60.0, 0.0)], steps=30)
    assert type(res.nfev) is int and type(res.nit) is int
    assert (res.nfev, res.nit) == (int(res.lane_nfev.sum()), int(res.lane_nit.sum()))
    # A start at the root stops before its first step.  Each point is
    # evaluated in one call with its Jacobian's 2 points, while steps are left.
    assert (res.lane_nfev[0], res.lane_nit[0], res.fun[0]) == (3, 0, 0.0)
    # Steps of at most 0.5 take the second lane 2 * sqrt(8) ~ 5.7 steps to
    # the root; it stops there, each point costing 3.
    assert 6 <= res.lane_nit[1] < 30 and res.fun[1] <= 1e-20
    assert res.lane_nfev[1] == 3 * (res.lane_nit[1] + 1)
    assert np.abs(res.x[1] - 1.0).max() <= 1e-10
    # The rootless system runs every step and keeps its best point, near
    # the minimum |F|^2 = 1 at (30, 0); its last point needs no Jacobian.
    assert res.lane_nit[2] == 30 and 1.0 <= res.fun[2] <= 1.0 + 1e-12
    assert res.lane_nfev[2] == 3 * 30 + 1
    assert res.fun[2] == _sum_of_squares(None, _regions(res.x[2][None]))[0]
    # A Jacobian that is not finite gives no step: the lane stops at its start.
    assert (res.lane_nfev[3], res.lane_nit[3], res.fun[3]) == (3, 0, 1.5)
    assert res.x[3].tolist() == [60.0, 0.0]


def test_minimize_prune_keeps_every_lane_up_to_the_first_stop():
    # Lane 0 has no root, lane 1 stops at tol, and lanes 2 and 3 would take
    # longer to theirs or have none.  With prune, the lanes behind lane 1
    # are dropped, and the batch behind its batch never runs.
    lanes = witness._LANES
    starts = [(30.3, 0.4), (-1.0, 3.0), (-4.0, 4.0), (30.2, 0.1)][:lanes] + [(0.0, 0.0)] * lanes
    full = _minimize_regions(starts)
    pruned = _minimize_regions(starts, prune=True)
    assert np.flatnonzero(full.fun <= 1e-20)[0] == 1
    for name in ("x", "fun", "lane_nfev", "lane_nit"):
        # Bit for bit: the bytes of the lanes up to the first stop.
        assert getattr(pruned, name)[:2].tobytes() == getattr(full, name)[:2].tobytes()
    assert (pruned.lane_nit[2:] < full.lane_nit[2:lanes]).all()
    assert len(pruned.fun) == lanes and len(full.fun) == 2 * lanes


# -- convergence to a known root -----------------------------------------------------

_STEPS = 60


def _root(dim):
    return np.linspace(-1.0, 1.0, dim) if dim > 1 else np.array([0.5])


def _smooth(zs):
    """A system R^dim -> R^(dim+1) whose one root is _root(dim): w = z - root
    goes to (k w_k + 0.2 sin(sum w))_k and |w|^2."""
    w = zs - _root(zs.shape[1])
    k = np.arange(1.0, zs.shape[1] + 1)
    return np.column_stack([k * w + 0.2 * np.sin(w.sum(axis=1))[:, None], np.sum(w * w, axis=1)])


def _smooth_starts(dim):
    # Three lanes, far enough out that the first steps are capped.
    rng = np.random.default_rng(dim)
    return _root(dim) + 3.0 * rng.standard_normal((3, dim))


def _minimize_smooth(starts, steps, tol):
    return witness.minimize(_smooth, _same, _sum_of_squares, lambda i: starts[i], len(starts),
                            steps, tol)


def test_minimize_converges_to_the_root():
    # Every lane converges to the root well inside the step budget.
    for dim in (1, 2, 5, 9):
        res = _minimize_smooth(_smooth_starts(dim), _STEPS, 1e-26)
        assert (res.fun <= 1e-26).all() and (res.lane_nit < _STEPS).all()
        assert np.abs(res.x - _root(dim)).max() <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 5, 9])
def test_minimize_halts_at_its_first_point_within_a_stop(dim):
    starts = _smooth_starts(dim)
    for stop in (1e-2, 1e-8):
        res = _minimize_smooth(starts, _STEPS, stop)
        assert (res.fun <= stop).all()
        # One step fewer leaves every lane above the stop: each halted at
        # its first point within it.
        shorter = [_minimize_smooth(starts[i:i + 1], int(n) - 1, stop) for i, n in
                   enumerate(res.lane_nit)]
        assert all(s.fun[0] > stop for s in shorter)
        # Halted in the root's basin: |w| <= |F| here.
        assert np.abs(res.x - _root(dim)).max() <= math.sqrt(stop)
    # A stop never reached: every lane runs every step, and ends at the root.
    never = _minimize_smooth(starts, _STEPS, -1.0)
    assert never.lane_nit.tolist() == [_STEPS] * 3
    assert np.abs(never.x - _root(dim)).max() <= 1e-12


def test_records_identical_for_any_batch_width(monkeypatch):
    # On the README map, case b at seed 31 and the collinear case at seed 29
    # first get within tol at restart 3: behind a whole batch at width 3, the
    # last lane of the first batch at width 4 and inside it at width 64.
    # The lanes behind restart 3 are dropped, and neither the records nor
    # restarts_used may change.
    f = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    cfg = SearchConfig(restarts=20, seed=31)
    collinear_cfg = SearchConfig(restarts=20, seed=29)
    base = search(f, "collinear", SearchConfig(restarts=2, seed=1))
    outputs = []
    for width in sorted({1, 3, witness._LANES, 64}):
        monkeypatch.setattr(witness, "_LANES", width)
        rec = search(f, "b", cfg)
        collinear = search(f, "collinear", collinear_cfg)
        est = estimate_singularity_dim(f, base, n_samples=5, cfg=SearchConfig())
        outputs.append((rec.canonical(), collinear.canonical(),
                        canonical_json(est.to_json_dict())))
        assert rec.residual <= cfg.tol and rec.restarts_used == 4
        assert collinear.residual <= cfg.tol and collinear.restarts_used == 4
    assert len(set(outputs)) == 1


def test_objective_case_b_symmetries():
    f = builtin_map("random_poly", {"m": 2, "n": 4, "degree": 2}, seed=1)
    rng = np.random.default_rng(2)

    def residual(c):
        return _residual_from_points("parallel_b", f, [record_points("parallel_b", c)])[0]

    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        w = rng.standard_normal(6)
        w /= np.linalg.norm(w)
        c = Configuration(x, w[:3], w[3:], 0.25)
        swapped = Configuration(-x, c.v, c.u, 0.25)
        negated = Configuration(x, -c.u, -c.v, 0.25)
        val = residual(c)
        assert residual(swapped) == val
        assert residual(negated) == val


def test_objective_case_a_norm_gate():
    f = builtin_map("random_poly", {"m": 1, "n": 2, "degree": 2}, seed=2)
    root_half = 1.0 / math.sqrt(2.0)

    def record(c):
        pts = record_points("parallel_a", c)
        return WitnessRecord(
            case="parallel_a", found=True, points=pts,
            residual=float(_residual_from_points("parallel_a", f, [pts])[0]),
            # Each pair lies 2 delta |u| = 2 * 0.25 / sqrt(2) apart.
            min_pairwise_distance=0.5 * root_half, pair_sets_distinct=True, config=c,
            map_digest=map_digest(f), seed=0, restarts_used=0,
        )

    good = Configuration(
        np.array([1.0, 0.0]),
        np.array([root_half, 0.0]),
        np.array([0.0, root_half]),
        0.25,
    )
    ver = verify_witness(record(good), f, tol=1.0)
    assert 0.0 <= ver.residual <= 1.0
    assert ver.checks["config_norms"] is True and ver.passed
    bad = Configuration(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                        np.array([0.0, root_half]), 0.25)
    ver = verify_witness(record(bad), f, tol=1.0)
    assert ver.checks["config_norms"] is False
    assert not ver.passed
    assert "u lies 0.29 off the parallel_a manifold" in ver.messages


# Per case, the radius of u and v on the search's manifold, None where
# (u, v) lies jointly on the unit sphere.
_OFFSET_RADIUS = {"parallel_b": None, "parallel_a": 1 / math.sqrt(2),
                  "collinear": 1.0, "linear_dependence": 1.0}


def _config_on_manifold(case: str) -> Configuration:
    rng = np.random.default_rng(3)
    x, u, v = (a / np.linalg.norm(a) for a in rng.standard_normal((3, 3)))
    if _OFFSET_RADIUS[case] is None:
        w = np.concatenate([u, 2.0 * v])
        u, v = np.split(w / np.linalg.norm(w), 2)
    else:
        u, v = _OFFSET_RADIUS[case] * u, _OFFSET_RADIUS[case] * v
    return Configuration(x, u, v, 0.25)


def _config_norms(case: str, c: Configuration):
    f = builtin_map("random_poly", {"m": 2, "n": 4, "degree": 2}, seed=1)
    pts = record_points(case, c)
    rec = WitnessRecord(
        case=case, found=True, points=pts,
        residual=float(_residual_from_points(case, f, [pts])[0]),
        min_pairwise_distance=0.5, pair_sets_distinct=True, config=c,
        map_digest=map_digest(f), seed=0, restarts_used=0,
    )
    return verify_witness(rec, f, tol=1.0)


@pytest.mark.parametrize("case", ["parallel_b", "parallel_a", "collinear", "linear_dependence"])
@pytest.mark.parametrize("shift, passes", [(1e-6, False), (1e-12, True)])
def test_verify_config_norms_use_the_search_projection(case, shift, passes):
    # Each block moved radially by ``shift`` off its manifold; for case b
    # the (u, v) pair off its joint sphere.
    c = _config_on_manifold(case)
    assert _config_norms(case, c).checks["config_norms"] is True
    scaled = lambda a: a * (1 + shift / np.linalg.norm(a))  # noqa: E731
    joint = 1 + shift
    moved = [Configuration(scaled(c.x), c.u, c.v, 0.25)]
    if _OFFSET_RADIUS[case] is None:
        moved.append(Configuration(c.x, joint * c.u, joint * c.v, 0.25))
    else:
        moved += [Configuration(c.x, scaled(c.u), c.v, 0.25),
                  Configuration(c.x, c.u, scaled(c.v), 0.25)]
    for m in moved:
        ver = _config_norms(case, m)
        assert ver.checks["config_norms"] is passes
        if not passes:
            assert any(f"off the {case} manifold" in msg for msg in ver.messages)
    zero_x = _config_norms(case, Configuration(np.zeros(3), c.u, c.v, 0.25))
    assert zero_x.checks["config_norms"] is False and not zero_x.passed
    assert f"the config has a zero block: it has no point on the {case} manifold" in zero_x.messages


def test_verify_config_norms_case_b_zero_u():
    # u = 0 with |v| = 1 lies on case b's joint sphere: no zero block there.
    # Its points x + du and x - du coincide, but they lie in different pairs
    # {x+du, -x+dv} and {x-du, -x-dv}, so both pairs stay nondegenerate.
    ver = _config_norms("parallel_b", Configuration(
        np.array([1.0, 0.0, 0.0]), np.zeros(3), np.array([0.0, 1.0, 0.0]), 0.25))
    assert ver.checks["config_norms"] is True
    assert ver.checks["pairs_nondegenerate"] is True
    assert ver.checks["pair_sets_distinct"] is True


# -- search ------------------------------------------------------------------------


def test_search_config_validation():
    for kwargs in (
        {"delta": 0.5},
        {"delta": 0.0},
        # At or below the distinctness threshold no four points can be
        # told apart.
        {"delta": 1e-300},
        {"delta": 1e-9},
        {"tol": 0.0},
        {"restarts": 0},
        {"restarts": 257},
        {"max_iters": 0},
        {"max_iters": 501},
        {"seed": -1},
    ):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


def test_search_just_above_the_smallest_delta_finds_only_witnesses():
    # Just above the distinctness threshold, the closest points are still
    # sqrt(2)*delta or 2*delta apart: every record found verifies.
    for m, n, degree, seed in (_SUITE_MAP_B, _SUITE_MAP_A):
        f = builtin_map("random_poly", {"m": m, "n": n, "degree": degree}, seed=seed)
        for case in ("b", "collinear", "lindep"):
            rec = search(f, case, SearchConfig(delta=1.0000001e-9, restarts=16))
            if rec.found:
                assert verify_witness(rec, f).passed, (m, case)


def test_search_config_has_no_schedule_or_zero_knobs():
    # The zero threshold and the solver's settings (Jacobian step, pinv
    # cut, step cap, lane width) are constants: a record cannot carry them,
    # so no caller may set them.
    assert [fld.name for fld in dataclasses.fields(SearchConfig)] == [
        "delta", "tol", "restarts", "max_iters", "seed",
    ]
    for kwargs in ({"zero_eps": 1e-13}, {"step": 0.5}, {"polish_rounds": 2}):
        with pytest.raises(TypeError):
            SearchConfig(**kwargs)
    f = builtin_map("parabola")
    with pytest.raises(TypeError):
        parallel_residual([1.0, 0.0], [2.0, 0.0], zero_eps=1e-13)
    with pytest.raises(TypeError):
        collinear_residual(*np.eye(4, 3), zero_eps=1e-13)
    with pytest.raises(TypeError):
        lin_dep_residual(*np.eye(4, 1), f, zero_eps=1e-13)
    with pytest.raises(TypeError):
        find_1d(f, (-2.0, 2.0), zero_eps=1e-13)


def test_search_rejects_line_1d():
    with pytest.raises(ValueError, match="find_1d"):
        search(builtin_map("parabola"), "line_1d")
    with pytest.raises(ValueError):
        search(builtin_map("parabola"), "nonesuch")


def test_search_finds_case_b_witness():
    f = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    cfg = SearchConfig(restarts=5, seed=7)
    rec = search(f, "b", cfg)
    assert rec.case == "parallel_b"
    assert rec.found and rec.residual <= cfg.tol
    assert rec.pair_sets_distinct
    assert rec.map_digest == map_digest(f)
    assert 1 <= rec.restarts_used <= 5
    assert verify_witness(rec, f, tol=cfg.tol).passed


def test_search_is_deterministic():
    f = builtin_map("random_poly", {"m": 1, "n": 3, "degree": 2}, seed=6)
    cfg = SearchConfig(restarts=3, max_iters=120, seed=11)
    a = search(f, "collinear", cfg)
    b = search(f, "collinear", cfg)
    assert a.canonical() == b.canonical()
    c = search(f, "collinear", SearchConfig(restarts=3, max_iters=120, seed=12))
    assert c.canonical() != a.canonical()


def test_search_seed_recorded():
    f = builtin_map("random_poly", {"m": 1, "n": 2, "degree": 2}, seed=3)
    rec = search(f, "b", SearchConfig(restarts=2, max_iters=60, seed=9))
    assert rec.seed == 9
    assert rec.config is not None
    nx = float(np.linalg.norm(rec.config.x))
    assert abs(nx - 1.0) <= 1e-9


# The benchmark's witness pass (clibench/workloads.py: MAP_B, MAP_A,
# EXACT_MAP_SEEDS, COLLINEAR_RESTARTS, LINDEP_RESTARTS, SINGULARITY_SAMPLES,
# WITNESS_SEEDS), copied here: that file says every shift s succeeds.
_SUITE_MAP_B = (1, 4, 3, 42)
_SUITE_MAP_A = (2, 5, 2, 7)


def test_every_witness_suite_shift_finds_and_verifies():
    # Every search of the pass at s = 0..63, run in process.  The collinear
    # searches have the least margin: s = 41 needs 14 of its 16 restarts.
    def rand(params, seed):
        m, n, degree, base = params
        return builtin_map("random_poly", {"m": m, "n": n, "degree": degree}, seed=base + seed)

    failures = []
    for s in range(64):
        searches = [(rand(_SUITE_MAP_B, s + j), "b", 200) for j in range(2)]
        searches += [(rand(_SUITE_MAP_A, s + j), "a", 100) for j in range(2)]
        searches += [(rand(_SUITE_MAP_B, s), "collinear", 16), (rand(_SUITE_MAP_B, s), "lindep", 8)]
        for f, case, restarts in searches:
            rec = search(f, case, SearchConfig(restarts=restarts))
            if not (rec.found and verify_witness(rec, f).passed):
                failures.append((s, case, rec.residual))
            if case == "collinear" and rec.found:
                est = estimate_singularity_dim(f, rec, n_samples=12)
                if not (est.samples == 12 and est.estimated_dim >= est.expected_lower_bound):
                    failures.append((s, "singularity", est.samples, est.estimated_dim))
    assert failures == []


@pytest.mark.parametrize("case", ["a", "b", "collinear"])
def test_twisted_cubic_has_no_parallel_or_coplanar_witness(case):
    # On t -> (t, t^2, t^3) the chord from a to b is (b-a)(1, a+b, a^2+ab+b^2),
    # so parallel chords force {a, b} = {c, d}, and no four distinct points
    # are coplanar: the searches must miss by a clear margin.
    f = builtin_map("moment", {"m": 0, "n": 2})
    for seed in (0, 1):
        rec = search(f, case, SearchConfig(restarts=32, seed=seed))
        assert not rec.found and rec.restarts_used == 32
        assert rec.residual >= 1e-3


def test_twisted_cubic_lindep_witness_in_the_first_restart():
    # Linear dependence of four images is guaranteed into R^3 at m = 0.
    f = builtin_map("moment", {"m": 0, "n": 2})
    assert theorem_guarantee(f, "lindep")[0]
    rec = search(f, "lindep", SearchConfig(restarts=32))
    assert rec.found and rec.restarts_used == 1
    assert verify_witness(rec, f).passed


# -- verification -------------------------------------------------------------------


def test_verify_witness_happy_path():
    f = linear_r2_r3()
    rec = WitnessRecord.from_json_dict(exact_collinear_record_dict(f))
    ver = verify_witness(rec, f, tol=1e-10)
    assert ver.passed
    assert ver.checks["digest_matches"]
    assert ver.checks["points_match_config"]
    assert ver.checks["residual_agrees_with_record"]
    assert ver.checks["points_distinct"]
    assert ver.messages == []


def test_verify_witness_detects_tampering():
    f = linear_r2_r3()
    rec = WitnessRecord.from_json_dict(exact_collinear_record_dict(f))

    moved = WitnessRecord.from_json_dict(exact_collinear_record_dict(f))
    moved.points = [p.copy() for p in moved.points]
    moved.points[0][1] += 0.3
    ver = verify_witness(moved, f, tol=1e-10)
    assert not ver.passed
    assert not ver.checks["points_match_config"]

    lied = WitnessRecord.from_json_dict(exact_collinear_record_dict(f))
    lied.residual = 0.25
    ver = verify_witness(lied, f, tol=1e-10)
    assert not ver.passed
    assert not ver.checks["residual_agrees_with_record"]

    other_map = builtin_map("random_poly", {"m": 1, "n": 2, "degree": 2}, seed=5)
    ver = verify_witness(rec, other_map, tol=1e-10)
    assert not ver.checks["digest_matches"]
    assert not ver.passed


def test_verify_witness_rejects_bad_shape():
    f = linear_r2_r3()
    rec = WitnessRecord.from_json_dict(exact_collinear_record_dict(f))
    rec.points = rec.points[:3]
    with pytest.raises(ValueError):
        verify_witness(rec, f)


def test_record_json_round_trip_byte_identical():
    f = linear_r2_r3()
    rec = WitnessRecord.from_json_dict(exact_collinear_record_dict(f))
    text = rec.canonical()
    back = WitnessRecord.from_json_dict(json.loads(text))
    assert back.canonical() == text
    with pytest.raises(ValueError, match="malformed"):
        WitnessRecord.from_json_dict({"case": "collinear"})
    with pytest.raises(ValueError, match="^malformed witness record: expected a JSON object$"):
        WitnessRecord.from_json_dict([1, 2])
    with pytest.raises(ValueError, match="^malformed witness record: config must be a JSON "
                                         "object or null$"):
        WitnessRecord.from_json_dict({**json.loads(text), "config": "abc"})


@pytest.mark.parametrize(
    "key, value",
    [
        ("found", "no"),
        ("found", 1),
        ("pair_sets_distinct", "false"),
        ("pair_sets_distinct", None),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "3"),
        ("restarts_used", 2.9),
        ("restarts_used", 2.0),
        ("restarts_used", False),
        ("residual", True),
        ("min_pairwise_distance", "0.5"),
        ("points", [[1.25, "0"], [0.75, 0.0], [-0.75, 0.0], [-1.25, 0.0]]),
        ("map_digest", 5),
    ],
)
def test_record_json_rejects_instead_of_coercing(key, value):
    # A record field takes only its own JSON type, never a value coerced to
    # it, and a bool is not an integer here.
    data = exact_collinear_record_dict(linear_r2_r3())
    data[key] = value
    with pytest.raises(ValueError, match=rf"malformed witness record: {key}(\[\d+\])* must be"):
        WitnessRecord.from_json_dict(data)


# -- the 1-d construction --------------------------------------------------------


def test_find_1d_constant_map_warns_nothing():
    # Every centered sample is 0, so the singular-value ratio divides 0 by
    # 0 before it is set to 0; the suite turns a warning into an error.
    f = MapDescriptor(1, 2, (((1.5, (0,)),), ((-2.0, (0,)),)))
    rec = find_1d(f, (0.0, 1.0))
    assert rec.found and rec.residual == 0.0


def test_find_1d_parabola():
    f = builtin_map("parabola")
    rec = find_1d(f, (-2.0, 2.0))
    assert rec.case == "line_1d" and rec.found
    assert rec.config is None and rec.restarts_used == 0
    x0, x1, y0, y1 = (float(p[0]) for p in rec.points)
    assert x0 < y0 < y1 < x1
    assert rec.residual <= 1e-12
    # Parabola chords are parallel iff endpoint sums agree.
    assert abs((x0 + x1) - (y0 + y1)) <= 1e-10
    assert verify_witness(rec, f, tol=1e-10).passed


def _old_widest_chord(imgs):
    # The whole-table formula find_1d used, kept as the reference.
    diffs = imgs[:, None, :] - imgs[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    i0, i1 = np.unravel_index(int(np.argmax(dist2)), dist2.shape)
    return (int(i0), int(i1)) if i0 <= i1 else (int(i1), int(i0))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 120),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["ties", "float", "zero"]),
)
def test_widest_chord_matches_whole_table(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "ties":  # few distinct points: many chords of equal length
        imgs = rng.integers(-2, 3, (n, 2)).astype(float)
    elif kind == "float":
        imgs = rng.standard_normal((n, 2)) * rng.choice([1e-150, 1.0, 1e150])
    else:  # every chord 0
        imgs = np.ones((n, 2))
    assert witness._widest_chord(imgs) == _old_widest_chord(imgs)


def test_find_1d_records_match_whole_table():
    cubic = MapDescriptor(1, 2, (((1.0, (1,)),), ((1.0, (3,)), (-0.5, (1,)))))
    cases = [(builtin_map("parabola"), (-2.0, 2.0)), (cubic, (-1.5, 1.0))]
    for f, interval in cases:
        for samples in (8, 257, 1000):
            rec = find_1d(f, interval, samples=samples)
            with mock.patch.object(witness, "_widest_chord", _old_widest_chord):
                assert find_1d(f, interval, samples=samples).canonical() == rec.canonical()


def test_find_1d_memory_is_flat_in_samples():
    # The whole 20,000 x 20,000 table would take gigabytes.
    tracemalloc.start()
    try:
        rec = find_1d(builtin_map("parabola"), (-2.0, 2.0), samples=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.found
    assert peak < 40e6


def test_find_1d_collinear_branch():
    line = MapDescriptor(1, 2, (((1.0, (1,)),), ((2.0, (1,)), (1.0, (0,)))))
    rec = find_1d(line, (0.0, 1.0))
    assert rec.found and rec.residual == 0.0
    x0, x1, y0, y1 = (float(p[0]) for p in rec.points)
    assert x0 < y0 < y1 < x1


def test_find_1d_ambiguity_zone():
    nearly_flat = MapDescriptor(1, 2, (((1.0, (1,)),), ((3e-6, (2,)),)))
    with pytest.raises(CollinearityAmbiguity):
        find_1d(nearly_flat, (-2.0, 2.0))


def test_find_1d_overflowing_map_is_invalid_input():
    # Sampled images beyond the float range are refused before the SVD,
    # with no warning on the way (filterwarnings = error would raise it).
    f = MapDescriptor.from_json_dict(
        {"coords": [[{"c": 1e308, "e": [3]}], [{"c": 1.0, "e": [2]}]]})
    with pytest.raises(ValueError, match="the map's values overflow the float range"):
        find_1d(f, (-2.0, 2.0))


@pytest.mark.parametrize("power", [600, 1000])
def test_find_1d_huge_images_scale_exactly(power):
    # Images beyond 1e154 are scaled by a power of two, which is exact: the
    # points are those of the unscaled map bit for bit, and no overflow
    # warning escapes (filterwarnings = error would raise it).
    f = MapDescriptor.from_json_dict(
        {"coords": [[{"c": 1.0, "e": [1]}, {"c": 0.3, "e": [3]}], [{"c": 1.0, "e": [2]}]]})
    big = MapDescriptor(1, 2, tuple(tuple((c * 2.0**power, e) for c, e in coord)
                                    for coord in f.coords))
    want, got = find_1d(f, (-1.0, 1.5)), find_1d(big, (-1.0, 1.5))
    assert got.found and want.found
    assert np.array(got.points).tobytes() == np.array(want.points).tobytes()
    assert got.residual == pytest.approx(want.residual, abs=1e-12)


def test_find_1d_validation():
    with pytest.raises(ValueError):
        find_1d(linear_r2_r3(), (0.0, 1.0))
    f = builtin_map("parabola")
    with pytest.raises(ValueError):
        find_1d(f, (1.0, 1.0))
    with pytest.raises(ValueError):
        find_1d(f, (0.0, 1.0), samples=4)
    # 257 samples of these intervals are two floats, and the "witness" their
    # points would make fails the ordering x0 < y0 < y1 < x1.
    for interval in ((1.0, 1.0000000000000002), (0.0, 5e-324)):
        with pytest.raises(ValueError, match="not strictly increasing"):
            find_1d(f, interval)


_MAPS_1D = (
    builtin_map("parabola"),
    builtin_map("random_poly", {"m": 0, "n": 1, "degree": 3}, seed=1),
)


@settings(max_examples=150, deadline=None)
@given(
    f=st.sampled_from(_MAPS_1D),
    a=st.sampled_from([0.0, 1.0, -1.0, 3.7, 5e-324]),
    ulps=st.one_of(st.integers(1, 600), st.integers(600, 2**40)),
)
def test_find_1d_found_records_verify(f, a, ulps):
    # Down to intervals a few floats wide, find_1d raises or returns a
    # record that verify_witness passes whenever it says found.
    b = a
    for _ in range(min(ulps, 600)):
        b = math.nextafter(b, math.inf)
    b = a + (b - a) * max(1, ulps // 600)
    try:
        rec = find_1d(f, (a, b))
    except (ValueError, CollinearityAmbiguity):
        return
    assert not rec.found or verify_witness(rec, f).passed


# -- singularity estimate ---------------------------------------------------------


def test_estimate_singularity_smoke():
    f = linear_r2_r3()
    rec = WitnessRecord.from_json_dict(exact_collinear_record_dict(f))
    cfg = SearchConfig(restarts=1, max_iters=200, seed=0)
    est = estimate_singularity_dim(f, rec, n_samples=6, cfg=cfg)
    assert est.base is rec
    assert 0 <= est.samples <= 6
    svals = est.singular_values
    assert svals == sorted(svals, reverse=True)
    assert est.expected_lower_bound == 4 * 2 - (3 - 2)
    if est.samples:
        assert est.estimated_dim >= 1
    data = est.to_json_dict()
    assert list(data) == [
        "base", "samples", "singular_values", "estimated_dim",
        "expected_lower_bound",
    ]


def test_estimate_singularity_rejects_wrong_base():
    f = builtin_map("random_poly", {"m": 1, "n": 3, "degree": 2}, seed=4)
    rec = search(f, "b", SearchConfig(restarts=2, max_iters=60, seed=1))
    with pytest.raises(ValueError, match="collinear"):
        estimate_singularity_dim(f, rec, n_samples=2)

    lin = linear_r2_r3()
    bad = WitnessRecord.from_json_dict(exact_collinear_record_dict(lin))
    bad.residual = 0.5
    with pytest.raises(ValueError, match="verification"):
        estimate_singularity_dim(lin, bad, n_samples=2)


# -- guarantees ---------------------------------------------------------------------


def test_theorem_guarantee_classification():
    line_ok, msg = theorem_guarantee(builtin_map("parabola"), "line_1d")
    assert line_ok and msg.startswith("guaranteed")
    line_no, _ = theorem_guarantee(linear_r2_r3(), "line_1d")
    assert not line_no

    f_b = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    ok, msg = theorem_guarantee(f_b, "b")
    assert ok and msg.startswith("guaranteed")
    # Same map, separated pairing: m+1 = 2 is a power of two.
    ok, msg = theorem_guarantee(f_b, "a")
    assert not ok and msg.startswith("exploratory")

    f_a = builtin_map("random_poly", {"m": 2, "n": 5, "degree": 2}, seed=7)
    ok, msg = theorem_guarantee(f_a, "a")
    assert ok and msg.startswith("guaranteed")

    wide = builtin_map("random_poly", {"m": 1, "n": 9, "degree": 2}, seed=0)
    ok, msg = theorem_guarantee(wide, "b")
    assert not ok and "exploratory" in msg

    ok, _ = theorem_guarantee(f_b, "lindep")
    assert ok


@pytest.mark.parametrize("m", [1, 3])
def test_coplanar_guarantee_holds_on_the_boundary(m):
    # m+1 = 2^(r-1): separated pairs are not forced, but Theorem B still
    # forces a coplanar 4-tuple into R^(n+1), n = m + 2^r - 1.
    p = DimensionParams(m)
    assert p.boundary

    def label(case, codomain):
        return theorem_guarantee(builtin_map("moment", {"m": m, "n": codomain - 1}), case)

    ok, msg = label("collinear", p.n + 1)
    assert ok and msg.startswith("guaranteed")
    ok, msg = label("collinear", p.n + 2)
    assert not ok and msg.startswith("exploratory")
    for codomain in (p.n + 1, p.n + 2):
        ok, msg = label("parallel_a", codomain)
        assert not ok and "separated pairs are not forced" in msg


@pytest.mark.parametrize("above", [0, 1])
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("m", range(17))
def test_theorem_guarantee_matches_the_dimension_formula(m, case, above):
    # The codomain limit for domain R^(m+1), with r from 2^(r-1) <= m+1 < 2^r:
    # m + 2^r, one more for lindep; R^2 exactly for the 1-d construction.
    r = next(k for k in range(1, 10) if m + 1 < 2**k)
    if case == "line_1d":
        limit = 2
    else:
        limit = m + 2**r + (case == "linear_dependence")
    c = limit + above
    ok, label = theorem_guarantee(builtin_map("moment", {"m": m, "n": c - 1}), case)
    if case == "line_1d":
        want = m == 0 and above == 0
    else:
        # Separated pairs are not forced when m+1 is a power of two.
        want = above == 0 and not (case == "parallel_a" and m + 1 in (1, 2, 4, 8, 16))
        assert label.startswith("guaranteed" if want else "exploratory")
        assert f"codomain dimension {c} {'>' if above else '<='} {limit} (m = {m}, r = {r})" in label
    assert ok == want
