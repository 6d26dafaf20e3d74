"""Witness-search tests.

The slow multi-start paths get small restart budgets here; the full-scale
runs with the contract defaults live in the acceptance suite.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
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
    config_to_points,
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


# -- configurations -------------------------------------------------------------


def test_config_to_points_example():
    x = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    p1, p2, p3, p4 = config_to_points(Configuration(x, u, v, 0.25))
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
        single_path = _residual_from_points("parallel_b", f, pts, 1e-13)
        assert parallel_residual(imgs[1] - imgs[0], imgs[3] - imgs[2]) == single_path
        # Case b's pairing {x+du, -x+dv}, {x-du, -x-dv} and case a's
        # {x±du}, {-x±dv}, taken in config_to_points order, give the
        # record's chords bit for bit.
        raw = eval_map(f, np.stack(config_to_points(c)))
        assert parallel_residual(raw[0] - raw[2], raw[1] - raw[3]) == single_path
        assert parallel_residual(raw[0] - raw[1], raw[2] - raw[3]) == \
            _residual_from_points("parallel_a", f, record_points("parallel_a", c), 1e-13)

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
    # np.linalg.norm for the projection, config_to_points for the points.
    x, u, v = np.random.default_rng(seed).standard_normal((3, d)) * scale
    assert np.array_equal(_unit(x), x / float(np.linalg.norm(x)))
    assert _unit(np.full(d, 1e-13)) is None
    c = Configuration(_unit(x), _unit(u), _unit(v), 0.25)
    p1, p2, p3, p4 = config_to_points(c)
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
    """Canonical JSON of a search per case and of a singularity estimate."""
    fb = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
    fa = builtin_map("random_poly", {"m": 2, "n": 5, "degree": 2}, seed=7)
    cfg = SearchConfig(restarts=2, max_iters=200, seed=0)
    records = {
        case: search(f, case, cfg)
        for f, case in ((fb, "parallel_b"), (fa, "parallel_a"), (fb, "collinear"),
                        (fb, "linear_dependence"))
    }
    assert records["collinear"].found
    est = estimate_singularity_dim(fb, records["collinear"], n_samples=4, cfg=SearchConfig())
    return [rec.canonical() for rec in records.values()] + [canonical_json(est.to_json_dict())]


def test_records_identical_under_reference_eval_map(monkeypatch):
    # Same machine, same run: the power-table eval_map and the broadcast
    # formula must drive every optimizer step to the same bits.  (Frozen
    # golden bytes would not do, as numpy's SIMD pow differs between CPUs.)
    fast = _witness_outputs()
    calls = []

    def reference(f, points):
        calls.append(1)
        return reference_eval_map(f, points)

    monkeypatch.setattr(witness, "eval_map", reference)
    assert _witness_outputs() == fast
    assert len(calls) > 10_000


def test_objective_case_b_symmetries():
    f = builtin_map("random_poly", {"m": 2, "n": 4, "degree": 2}, seed=1)
    rng = np.random.default_rng(2)

    def residual(c):
        return _residual_from_points("parallel_b", f, record_points("parallel_b", c), 1e-13)

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
            residual=_residual_from_points("parallel_a", f, pts, 1e-13),
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
    assert any("1/sqrt(2)" in msg for msg in ver.messages)


# -- search ------------------------------------------------------------------------


def test_search_config_validation():
    for kwargs in (
        {"delta": 0.5},
        {"delta": 0.0},
        {"tol": 0.0},
        {"restarts": 0},
        {"max_iters": 0},
        {"seed": -1},
        {"zero_eps": -1.0},
        {"step": 0.0},
        {"shrink": 1.0},
        {"polish_rounds": -1},
    ):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


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
