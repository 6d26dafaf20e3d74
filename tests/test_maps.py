"""Map-descriptor tests: evaluation, builtins, JSON round trips, digests."""

from __future__ import annotations

import numpy as np
import pytest

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
