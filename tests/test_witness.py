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
import scipy.optimize
from conftest import reference_eval_map
from hypothesis import given, settings
from hypothesis import strategies as st

from parlines import witness
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
    _residual_from_points,
    _unit,
)


def _linear_map_r2_r3() -> MapDescriptor:
    # (x, y) -> (x, y, x + y): injective linear, so it maps lines to lines.
    return MapDescriptor(
        2, 3,
        (((1.0, (1, 0)),), ((1.0, (0, 1)),), ((1.0, (1, 0)), (1.0, (0, 1)))),
    )


def _exact_collinear_record(f: MapDescriptor) -> WitnessRecord:
    # x, u, v all along e1 put the four sampled points on one domain line,
    # and a linear map keeps their images on a line.
    e1 = np.array([1.0, 0.0])
    config = Configuration(x=e1, u=e1, v=e1, delta=0.25)
    pts = record_points("collinear", config)
    imgs = eval_map(f, np.stack(pts))
    residual = collinear_residual(*imgs)
    return WitnessRecord(
        case="collinear",
        found=True,
        points=pts,
        residual=residual,
        min_pairwise_distance=0.5,
        pair_sets_distinct=True,
        config=config,
        map_digest=map_digest(f),
        seed=0,
        restarts_used=0,
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


def _witness_outputs() -> list:
    """Canonical JSON of searches that hit at restart 0, hit later and miss,
    and of a singularity estimate."""
    fb = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    fa = builtin_map("random_poly", {"m": 2, "n": 5, "degree": 2}, seed=7)
    cfg = SearchConfig(restarts=2, max_iters=200, seed=0)
    records = [search(f, case, cfg) for f, case in (
        (fb, "parallel_b"), (fa, "parallel_a"), (fb, "collinear"), (fb, "linear_dependence"))]
    # Restart 1, the first lane of a batch of 4, is the first within tol.
    later = search(fb, "b", SearchConfig(restarts=4, seed=7))
    # No restart gets within tol, so the pick is the minimum over all three.
    miss = search(fb, "collinear", SearchConfig(restarts=3, max_iters=25))
    assert records[2].found and later.restarts_used == 2 and not miss.found
    # The searches run at most 4 lanes at a time: 16 samples also run
    # minimize's wider path, and most of the points.
    est = estimate_singularity_dim(fb, records[2], n_samples=16, cfg=SearchConfig())
    return [rec.canonical() for rec in (*records, later, miss)] + \
        [canonical_json(est.to_json_dict())]


def test_records_identical_under_reference_eval_map(monkeypatch):
    # Same machine, same run: the power-table eval_map and the broadcast
    # formula must drive every optimizer step to the same bits.  (Frozen
    # golden bytes would not do, as numpy's SIMD pow differs between CPUs.)
    fast = _witness_outputs()
    calls = []

    def reference(f, points):
        calls.append(len(points))  # points evaluated
        return reference_eval_map(f, points)

    monkeypatch.setattr(witness, "eval_map", reference)
    assert _witness_outputs() == fast
    assert sum(calls) > 40_000


# -- the lockstep Nelder-Mead, each lane bit for bit against scipy -----------------

_NM_OPTIONS = {"maxiter": 400, "maxfev": 1600, "xatol": 1e-14, "fatol": 1e-18}


def _scipy_minimize(fun, simplex, maxiter, maxfev, xatol, fatol, stop=None):
    """scipy's Nelder-Mead; with a stop, halted by a callback as soon as
    its best value is at or below it."""
    def halt(intermediate_result):
        if intermediate_result.fun <= stop:
            raise StopIteration

    return scipy.optimize.minimize(
        fun,
        simplex[0],
        method="Nelder-Mead",
        callback=None if stop is None else halt,
        options={
            "maxiter": maxiter,
            "maxfev": maxfev,
            "xatol": xatol,
            "fatol": fatol,
            "initial_simplex": simplex,
        },
    )


def _batched(fun):
    """A one-point objective in the (M, N) -> (M,) form minimize calls."""
    return lambda zs: np.array([fun(z) for z in zs])


def _same_minima(fun, simplices, **options):
    """One lockstep minimize over the stack, every lane held to scipy."""
    simplices = np.asarray(simplices, dtype=float)
    ours = witness.minimize(_batched(fun), simplices, **options)
    for i, simplex in enumerate(simplices):
        ref = _scipy_minimize(fun, simplex, **options)
        assert ours.x[i].view(np.int64).tolist() == ref.x.view(np.int64).tolist()
        assert np.float64(ours.fun[i]).view(np.int64) == np.float64(ref.fun).view(np.int64)
        assert (ours.lane_nfev[i], ours.lane_nit[i], ours.status[i]) == \
            (ref.nfev, ref.nit, ref.status)
    assert (ours.nfev, ours.nit) == (sum(ours.lane_nfev), sum(ours.lane_nit))
    return ours


def _bumpy(z):
    k = np.arange(1, z.size + 1)
    return float(np.sum(k * (z - 0.3) ** 2) + 0.2 * math.sin(3.0 * float(np.sum(z))))


def _plateaus(z):
    # Like the search objective: 1.5 where the projection would fail, and
    # many exact ties elsewhere.
    if abs(z[0]) < 0.3:
        return 1.5
    return min(1.5, round(float(z @ z), 1))


def _kink(z):
    # Not smooth along the unit sphere, so the simplex shrinks there and the
    # shrunk vertices go on to set the later steps.
    return float(abs(z @ z - 1.0) + 0.1 * np.sum(z))


def _simplex(dim: int, seed: int, step: float = 0.5) -> np.ndarray:
    x = np.random.default_rng([seed, dim]).standard_normal(dim)
    return np.vstack([x, x + step * np.eye(dim)])


@pytest.mark.parametrize("dim", range(1, 14))
def test_minimize_matches_scipy_bitwise(dim):
    # Three lanes per call; they stop at different iterations.
    for fun in (_bumpy, _plateaus, _kink):
        _same_minima(fun, [_simplex(dim, seed) for seed in range(3)], **_NM_OPTIONS)
    stopped = _same_minima(_bumpy, [_simplex(dim, 1)], **{**_NM_OPTIONS, "maxiter": 9})
    assert stopped.nit == 9


def test_minimize_matches_scipy_on_maxfev_during_a_shrink():
    # A flat objective fails every reflection and contraction, so each
    # iteration shrinks: 4 initial calls, a reflection and an inside
    # contraction, then the cap of 8 stops the shrink after its second vertex.
    flat = _same_minima(lambda z: 1.5, [_simplex(3, 2)], **{**_NM_OPTIONS, "maxfev": 8})
    assert (flat.nfev, flat.nit) == (8, 1)
    # Every cap, including ones that stop the initial evaluation.
    for maxfev in range(1, 80):
        for fun in (_bumpy, _plateaus, _kink):
            _same_minima(fun, [_simplex(4, 3), _simplex(4, 5)], **{**_NM_OPTIONS, "maxfev": maxfev})


def test_minimize_matches_scipy_on_convergence():
    for dim in (1, 2, 5, 9):
        options = {"maxiter": 10_000, "maxfev": 40_000, "xatol": 1e-6, "fatol": 1e-6}
        res = _same_minima(_bumpy, [_simplex(dim, 4)], **options)
        assert res.nit < options["maxiter"] and res.nfev < options["maxfev"]


def _regions(z):
    # Four objectives side by side, told apart by z[0]: a flat plateau, exact
    # ties, Rosenbrock's valley and a bowl.
    if z[0] > 50:
        return 1.5
    if z[0] > 20:
        return min(1.5, round(float((z - 30) @ (z - 30)), 1))
    if z[0] > -50:
        w = z + 30
        return float(np.sum(100 * (w[1:] - w[:-1] ** 2) ** 2 + (1 - w[:-1]) ** 2))
    w = z + 100
    return float(w @ w)


def test_minimize_lanes_stop_for_different_reasons():
    def simplex(center, step, tilt=0.01):
        x = center + tilt * np.arange(3)
        return np.vstack([x, x + step * np.eye(3)])

    stack = [simplex(100.0, 0.5), simplex(30.3, 0.5), simplex(-30.0, 0.5),
             simplex(-100.0, 1.5e-3, tilt=0.0)]
    res = _same_minima(_regions, stack, maxiter=15, maxfev=37, xatol=1e-3, fatol=1e-3)
    # The plateau shrinks every iteration (5 fevs after the 4 initial ones):
    # the cap of 37 falls in iteration 7's shrink, after its first vertex.
    assert (res.lane_nfev[0], res.lane_nit[0], res.status[0]) == (37, 7, 1)
    # Ties up to the fev cap, the valley up to the iteration cap, and the
    # bowl, started at its minimum, converged.
    assert res.status.tolist() == [1, 1, 2, 0]


@pytest.mark.parametrize("dim", [1, 2, 5, 9])
def test_minimize_matches_scipy_halted_by_a_callback(dim):
    # Stops reached early, late, at exact ties, after the first iteration
    # (every initial value is below 1e9) and never (-10).
    stops = {_bumpy: (0.5, 0.0, -0.1), _plateaus: (1.0, 0.5, 0.0), _kink: (0.2, -0.3)}
    for fun, fun_stops in stops.items():
        for stop in (*fun_stops, 1e9, -10.0):
            res = _same_minima(fun, [_simplex(dim, seed) for seed in range(3)],
                               stop=stop, **_NM_OPTIONS)
            assert (res.status == 99).tolist() == (res.fun <= stop).tolist()
    halted = _same_minima(_bumpy, [_simplex(dim, 1)], stop=1e9, **_NM_OPTIONS)
    assert (halted.nit, halted.status[0]) == (2, 99)
    # scipy calls no callback before the first iteration: a lane capped
    # there keeps its cap's status.
    capped = _same_minima(_bumpy, [_simplex(dim, 1)], stop=1e9, **{**_NM_OPTIONS, "maxiter": 1})
    assert capped.status[0] == 2
    # A stop with the fev cap inside the same iteration, a shrink included.
    for maxfev in range(1, 40):
        for fun in (_bumpy, _plateaus, _kink):
            _same_minima(fun, [_simplex(3, 3), _simplex(3, 5)], stop=0.5,
                         **{**_NM_OPTIONS, "maxfev": maxfev})


def test_minimize_prune_keeps_every_lane_up_to_the_first_stop():
    def fun(z):
        # Above z[0] = 50 a bowl whose minimum is 0.5; elsewhere a bowl
        # whose minimum 0 is approached, never reached.
        if z[0] > 50:
            return float((z - 60) @ (z - 60)) + 0.5
        return float(z @ z)

    stop = 1e-6
    stack = [_simplex(2, 0) + 60, _simplex(2, 1) + 3, _simplex(2, 2) + 2, _simplex(2, 3) + 60]
    full = _same_minima(fun, stack, stop=stop, **_NM_OPTIONS)
    pruned = witness.minimize(_batched(fun), np.array(stack), stop=stop, prune=True,
                              **_NM_OPTIONS)
    assert full.fun[0] > stop and 0.0 < full.fun[1] <= stop
    assert full.status.tolist()[:2] == [0, 99]
    for name in ("x", "fun", "lane_nfev", "lane_nit", "status"):
        # Bit for bit: the bytes of the first two lanes.
        assert getattr(pruned, name)[:2].tobytes() == getattr(full, name)[:2].tobytes()
    # The lanes behind lane 1 stopped early.
    assert pruned.lane_nfev[3] < full.lane_nfev[3]


def _scipy_lanes(fun, simplices, maxiter, maxfev, xatol, fatol, stop=None, prune=False):
    """minimize's contract, one scipy run per lane; every lane runs to its
    end or its stop, as a lane behind a stopped one is never read."""
    refs = [_scipy_minimize(lambda z: float(fun(z[None])[0]), simplex,
                            maxiter, maxfev, xatol, fatol, stop) for simplex in simplices]
    nfev = np.array([r.nfev for r in refs])
    nit = np.array([r.nit for r in refs])
    return witness._MinimizeResult(
        np.array([r.x for r in refs]), np.array([r.fun for r in refs]),
        int(nfev.sum()), int(nit.sum()), nfev, nit, np.array([r.status for r in refs]),
    )


def test_records_identical_under_scipy_nelder_mead(monkeypatch):
    ours = _witness_outputs()
    calls = []

    def reference(*args, **kwargs):
        calls.append(1)
        return _scipy_lanes(*args, **kwargs)

    monkeypatch.setattr(witness, "minimize", reference)
    assert _witness_outputs() == ours
    assert len(calls) > 10


def test_records_identical_for_any_batch_width(monkeypatch):
    # The README map at seed 7 first gets within tol at restart 1 in case b,
    # the first lane of the batch of restarts 1-3 for widths 3 and 64; at
    # seed 11 also in the collinear case, whose first batch is restarts 0-2
    # at width 3 and all 20 at width 64.  The lanes behind restart 1 are
    # dropped, and neither the records nor restarts_used may change.
    f = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    cfg = SearchConfig(restarts=4, seed=7)
    collinear_cfg = SearchConfig(restarts=20, seed=11)
    base = search(f, "collinear", SearchConfig(restarts=2, max_iters=200))
    outputs = []
    for width in (1, 3, 64):
        monkeypatch.setattr(witness, "_BATCH", width)
        rec = search(f, "b", cfg)
        collinear = search(f, "collinear", collinear_cfg)
        est = estimate_singularity_dim(f, base, n_samples=5, cfg=SearchConfig())
        outputs.append((rec.canonical(), collinear.canonical(),
                        canonical_json(est.to_json_dict())))
        assert rec.residual <= cfg.tol and rec.restarts_used == 2
        assert collinear.residual <= cfg.tol and collinear.restarts_used == 2
    assert outputs[0] == outputs[1] == outputs[2]


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
            min_pairwise_distance=0.5, pair_sets_distinct=True, config=c,
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
        {"tol": 0.0},
        {"restarts": 0},
        {"max_iters": 0},
        {"seed": -1},
    ):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


def test_search_config_has_no_schedule_or_zero_knobs():
    # The zero threshold and the Nelder-Mead schedule are constants: a
    # record cannot carry them, so no caller may set them.
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


# -- verification -------------------------------------------------------------------


def test_verify_witness_happy_path():
    f = _linear_map_r2_r3()
    rec = _exact_collinear_record(f)
    ver = verify_witness(rec, f, tol=1e-10)
    assert ver.passed
    assert ver.checks["digest_matches"]
    assert ver.checks["points_match_config"]
    assert ver.checks["residual_agrees_with_record"]
    assert ver.checks["points_distinct"]
    assert ver.messages == []


def test_verify_witness_detects_tampering():
    f = _linear_map_r2_r3()
    rec = _exact_collinear_record(f)

    moved = _exact_collinear_record(f)
    moved.points = [p.copy() for p in moved.points]
    moved.points[0][1] += 0.3
    ver = verify_witness(moved, f, tol=1e-10)
    assert not ver.passed
    assert not ver.checks["points_match_config"]

    lied = _exact_collinear_record(f)
    lied.residual = 0.25
    ver = verify_witness(lied, f, tol=1e-10)
    assert not ver.passed
    assert not ver.checks["residual_agrees_with_record"]

    other_map = builtin_map("random_poly", {"m": 1, "n": 2, "degree": 2}, seed=5)
    ver = verify_witness(rec, other_map, tol=1e-10)
    assert not ver.checks["digest_matches"]
    assert not ver.passed


def test_verify_witness_rejects_bad_shape():
    f = _linear_map_r2_r3()
    rec = _exact_collinear_record(f)
    rec.points = rec.points[:3]
    with pytest.raises(ValueError):
        verify_witness(rec, f)


def test_record_json_round_trip_byte_identical():
    f = _linear_map_r2_r3()
    rec = _exact_collinear_record(f)
    text = rec.canonical()
    back = WitnessRecord.from_json_dict(json.loads(text))
    assert back.canonical() == text
    with pytest.raises(ValueError, match="malformed"):
        WitnessRecord.from_json_dict({"case": "collinear"})


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
    ],
)
def test_record_json_rejects_instead_of_coercing(key, value):
    # A record field takes only its own JSON type, never a value coerced to
    # it, and a bool is not an integer here.
    data = _exact_collinear_record(_linear_map_r2_r3()).to_json_dict()
    data[key] = value
    with pytest.raises(ValueError, match=f"malformed witness record: {key} must be"):
        WitnessRecord.from_json_dict(data)


# -- the 1-d construction --------------------------------------------------------


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
    st.sampled_from([1, 7, 64, 1 << 18]),
    st.sampled_from(["ties", "float", "zero"]),
)
def test_widest_chord_matches_whole_table(n, seed, block, kind):
    rng = np.random.default_rng(seed)
    if kind == "ties":  # few distinct points: many chords of equal length
        imgs = rng.integers(-2, 3, (n, 2)).astype(float)
    elif kind == "float":
        imgs = rng.standard_normal((n, 2)) * rng.choice([1e-150, 1.0, 1e150])
    else:  # every chord 0
        imgs = np.ones((n, 2))
    with mock.patch.object(witness, "_CHORD_BLOCK", block):
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
        find_1d(_linear_map_r2_r3(), (0.0, 1.0))
    f = builtin_map("parabola")
    with pytest.raises(ValueError):
        find_1d(f, (1.0, 1.0))
    with pytest.raises(ValueError):
        find_1d(f, (0.0, 1.0), samples=4)


# -- singularity estimate ---------------------------------------------------------


def test_estimate_singularity_smoke():
    f = _linear_map_r2_r3()
    rec = _exact_collinear_record(f)
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

    lin = _linear_map_r2_r3()
    bad = _exact_collinear_record(lin)
    bad.residual = 0.5
    with pytest.raises(ValueError, match="verification"):
        estimate_singularity_dim(lin, bad, n_samples=2)


# -- guarantees ---------------------------------------------------------------------


def test_theorem_guarantee_classification():
    line_ok, msg = theorem_guarantee(builtin_map("parabola"), "line_1d")
    assert line_ok and msg.startswith("guaranteed")
    line_no, _ = theorem_guarantee(_linear_map_r2_r3(), "line_1d")
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
