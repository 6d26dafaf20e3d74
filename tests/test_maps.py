"""Map-descriptor tests: evaluation, builtins, JSON round trips, digests."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import reference_eval_map
from hypothesis import given, settings
from hypothesis import strategies as st

from parlines.jsonio import canonical_json
from parlines.maps import (
    BUILTIN_NAMES,
    MapDescriptor,
    builtin_map,
    eval_map,
    map_digest,
)


def test_eval_single_point():
    f = builtin_map("parabola")
    out = eval_map(f, [2.0])
    assert out.shape == (2,)
    assert np.allclose(out, [2.0, 4.0])


def test_eval_batch_matches_single():
    f = builtin_map("random_poly", {"m": 1, "n": 3, "degree": 2}, seed=5)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (7, 2))
    batch = eval_map(f, pts)
    assert batch.shape == (7, 4)
    for i, p in enumerate(pts):
        assert np.allclose(batch[i], eval_map(f, p))


def test_eval_mixed_terms():
    # f(x, y) = (3 x^2 y - y, x + 0.5)
    f = MapDescriptor(
        2, 2,
        (((3.0, (2, 1)), (-1.0, (0, 1))), ((1.0, (1, 0)), (0.5, (0, 0)))),
    )
    assert np.allclose(eval_map(f, [2.0, -1.0]), [-11.0, 2.5])


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@st.composite
def _maps_and_points(draw):
    d = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    coefficient = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    term = st.tuples(coefficient, st.tuples(*[st.integers(0, 7)] * d))
    coords = tuple(tuple(draw(st.lists(term, max_size=5))) for _ in range(c))
    coordinate = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        shape = (d,)
    else:
        shape = (draw(st.sampled_from([0, 1, 2, 4, 7, 33, 257])), d)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e2]))
    seed = draw(st.integers(0, 2**32 - 1))
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, shape) * scale
    if draw(st.booleans()) and points.size:
        # a few hand-drawn values, zeros and repeats included
        flat = points.reshape(-1)
        for i, v in enumerate(draw(st.lists(coordinate, max_size=flat.size))):
            flat[i] = v
    return MapDescriptor(d, c, coords), points


@settings(max_examples=300, deadline=None)
@given(_maps_and_points())
def test_eval_map_bitwise_equals_broadcast_formula(case):
    # Single points, batches (empty ones too), empty coordinates and lone
    # terms: the power table must give the broadcast formula's bits.
    f, points = case
    out = eval_map(f, points)
    ref = reference_eval_map(f, points)
    assert out.shape == ref.shape
    assert np.array_equal(_bits(out), _bits(ref))


def test_eval_map_bitwise_with_one_exponent():
    # When every factor uses one exponent, numpy's power squares by x*x if it
    # sees that exponent for the whole loop and calls pow otherwise, which
    # differs in the last bit for about 2% of inputs.  Like the broadcast
    # formula, a lone term in one variable must take the x*x path and
    # several factors the pow path.
    rng = np.random.default_rng(1)
    for e in range(8):
        for f in (
            MapDescriptor(1, 1, (((0.7, (e,)),),)),
            MapDescriptor(1, 1, (((0.5, (e,)), (1.5, (e,))),)),
            MapDescriptor(2, 1, (((0.5, (e, e)),),)),
            MapDescriptor(2, 2, (((0.5, (e, e)),), ((2.0, (e, e)),))),
        ):
            pts = rng.standard_normal((1000, f.domain_dim))
            for p in (pts, pts[:4], pts[:1], pts[0]):
                assert np.array_equal(_bits(eval_map(f, p)), _bits(reference_eval_map(f, p)))


def test_eval_map_sparse_high_degree_terms():
    # The power table holds the exponents in use, not 0..max_exp, so a map
    # file with one very high exponent loads and evaluates like any other.
    lone = MapDescriptor.from_json_dict(
        {"domain_dim": 1, "codomain_dim": 1, "coords": [[{"c": 1, "e": [10**9]}]]}
    )
    mixed = MapDescriptor.from_json_dict(
        {
            "domain_dim": 2,
            "codomain_dim": 2,
            "coords": [
                [{"c": 1, "e": [10**9, 0]}, {"c": -2.5, "e": [1, 101]}],
                [{"c": 0.5, "e": [3, 10**9 + 1]}],
            ],
        }
    )
    assert lone._powers.size == 1 and mixed._powers.size == 6
    rng = np.random.default_rng(2)
    for f in (lone, mixed):
        # near +-1, where x**101 is neither 0 nor 1, plus 1, -1 and 0 exactly
        pts = rng.uniform(0.95, 1.0, (257, f.domain_dim)) * rng.choice([-1.0, 1.0], (257, 1))
        pts[:3] = [[1.0], [-1.0], [0.0]]
        for p in (pts, pts[:4], pts[0]):
            assert np.array_equal(_bits(eval_map(f, p)), _bits(reference_eval_map(f, p)))


@pytest.mark.parametrize(
    "name, params, seed",
    [
        ("affine_graph", {"m": 0}, None),
        ("affine_graph", {"m": 3}, None),
        ("parabola", {}, None),
        ("moment", {"m": 0, "n": 4}, None),
        ("moment", {"m": 2, "n": 9}, None),
        ("random_poly", {"m": 0, "n": 1, "degree": 7}, 3),
        ("random_poly", {"m": 1, "n": 4, "degree": 3}, 42),
        ("random_poly", {"m": 2, "n": 5, "degree": 2}, 7),
        ("random_poly", {"m": 3, "n": 2, "degree": 4}, 11),
    ],
)
def test_eval_map_bitwise_on_builtins(name, params, seed):
    f = builtin_map(name, params, seed=seed)
    rng = np.random.default_rng(0)
    for n in (1, 4, 33, 257):
        pts = rng.standard_normal((n, f.domain_dim))
        assert np.array_equal(_bits(eval_map(f, pts)), _bits(reference_eval_map(f, pts)))
        assert np.array_equal(_bits(eval_map(f, pts[0])), _bits(reference_eval_map(f, pts[0])))


def test_eval_rejects_wrong_dimension():
    f = builtin_map("parabola")
    with pytest.raises(ValueError):
        eval_map(f, [1.0, 2.0])
    with pytest.raises(ValueError):
        eval_map(f, np.zeros((3, 2)))


def test_empty_coordinate_evaluates_to_zero():
    f = MapDescriptor(1, 2, (((1.0, (1,)),), ()))
    assert np.allclose(eval_map(f, [3.0]), [3.0, 0.0])


def test_descriptor_validation():
    with pytest.raises(ValueError):
        MapDescriptor(1, 2, (((1.0, (1,)),),))  # wrong number of coords
    with pytest.raises(ValueError):
        MapDescriptor(1, 1, (((1.0, (1, 2)),),))  # exponent arity
    with pytest.raises(ValueError):
        MapDescriptor(1, 1, (((1.0, (-1,)),),))  # negative exponent
    with pytest.raises(ValueError):
        MapDescriptor(1, 1, (((float("nan"), (1,)),),))
    with pytest.raises(ValueError):
        MapDescriptor(0, 1, ())


def test_affine_graph_shape():
    f = builtin_map("affine_graph", {"m": 2})
    assert (f.domain_dim, f.codomain_dim) == (3, 4)
    assert np.allclose(eval_map(f, [1.0, 2.0, 3.0]), [1.0, 1.0, 2.0, 3.0])


def test_moment_map_coordinates():
    f = builtin_map("moment", {"m": 1, "n": 4})
    assert (f.domain_dim, f.codomain_dim) == (2, 5)
    # Degree-1 then degree-2 monomials over (x, y): x, y, x^2, xy, y^2.
    out = eval_map(f, [2.0, 3.0])
    assert np.allclose(out, [2.0, 3.0, 4.0, 6.0, 9.0])


def test_random_poly_deterministic_in_seed():
    a = builtin_map("random_poly", {"m": 2, "n": 4, "degree": 3}, seed=42)
    b = builtin_map("random_poly", {"m": 2, "n": 4, "degree": 3}, seed=42)
    c = builtin_map("random_poly", {"m": 2, "n": 4, "degree": 3}, seed=43)
    assert a.coords == b.coords
    assert a.coords != c.coords
    assert all(abs(coef) <= 1.0 for coord in a.coords for coef, _ in coord)


def test_random_poly_requires_seed():
    with pytest.raises(ValueError):
        builtin_map("random_poly", {"m": 1, "n": 1, "degree": 1})


def test_builtin_param_validation():
    with pytest.raises(ValueError):
        builtin_map("affine_graph", {})
    with pytest.raises(ValueError):
        builtin_map("affine_graph", {"m": 1, "extra": 2})
    with pytest.raises(ValueError):
        builtin_map("parabola", {"m": 1})
    with pytest.raises(ValueError):
        builtin_map("nonesuch", {})
    assert set(BUILTIN_NAMES) == {"affine_graph", "parabola", "moment", "random_poly"}


def test_json_round_trip_coords_form():
    f = MapDescriptor(
        2, 2,
        (((3.0, (2, 1)), (-1.0, (0, 1))), ((1.0, (1, 0)), (0.5, (0, 0)))),
    )
    g = MapDescriptor.from_json_dict(f.to_json_dict())
    assert g == f
    assert canonical_json(g.to_json_dict()) == canonical_json(f.to_json_dict())


def test_json_round_trip_builtin_form():
    f = builtin_map("random_poly", {"m": 1, "n": 2, "degree": 2}, seed=9)
    data = f.to_json_dict()
    assert data["builtin"] == "random_poly" and data["seed"] == 9
    g = MapDescriptor.from_json_dict(data)
    assert g.coords == f.coords
    assert g.builtin == f.builtin


def test_json_builtin_form_with_nested_params():
    f = builtin_map("random_poly", {"m": 1, "n": 2, "degree": 2}, seed=9)
    g = MapDescriptor.from_json_dict(
        {"builtin": "random_poly", "params": {"m": 1, "n": 2, "degree": 2}, "seed": 9}
    )
    assert g.coords == f.coords
    # Output keeps the one flat form whichever form came in.
    assert canonical_json(g.to_json_dict()) == canonical_json(f.to_json_dict())


def test_digest_same_for_both_json_forms():
    f = builtin_map("parabola")
    explicit = MapDescriptor.from_json_dict(f._coords_json_dict())
    assert explicit.builtin is None
    assert map_digest(explicit) == map_digest(f)
    assert len(map_digest(f)) == 64


def test_digest_distinguishes_maps():
    f = builtin_map("parabola")
    g = MapDescriptor(1, 2, (((1.0, (1,)),), ((1.0, (2,)), (1e-9, (0,)))))
    assert map_digest(f) != map_digest(g)


def test_from_json_rejects_malformed():
    with pytest.raises(ValueError, match="malformed"):
        MapDescriptor.from_json_dict({"coords": [[{"c": 1.0}]], "domain_dim": 1,
                                      "codomain_dim": 1})
    with pytest.raises(ValueError):
        MapDescriptor.from_json_dict({"builtin": "nonesuch"})
