"""Map-descriptor tests: evaluation, builtins, JSON round trips, digests."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_eval_map
from hypothesis import given, settings
from hypothesis import strategies as st

import parlines
from parlines.cli import main
from parlines.jsonio import canonical_json
from parlines.maps import (
    BUILTIN_NAMES,
    MapDescriptor,
    _uniform_stream,
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


@st.composite
def _wide_sparse_maps_and_points(draw):
    # Up to 40 variables, terms of 0-3 factors (constants included) and
    # empty coordinates: most slots of a term read x_0^0 = 1.0.
    d = draw(st.integers(1, 40))
    c = draw(st.integers(1, 4))
    coefficient = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    factors = st.dictionaries(st.integers(0, d - 1), st.integers(1, 5), max_size=3)
    term = st.tuples(coefficient, factors.map(
        lambda fs: tuple(fs.get(k, 0) for k in range(d))))
    coords = tuple(tuple(draw(st.lists(term, max_size=5))) for _ in range(c))
    shape = draw(st.sampled_from([(d,), (0, d), (1, d), (7, d), (33, d)]))
    seed = draw(st.integers(0, 2**32 - 1))
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, shape)
    return MapDescriptor(d, c, coords), points


@settings(max_examples=300, deadline=None)
@given(st.one_of(_maps_and_points(), _wide_sparse_maps_and_points()))
def test_eval_map_bitwise_equals_broadcast_formula(case):
    # Single points, batches (empty ones too), empty coordinates, lone
    # terms and wide sparse maps: the power table must give the broadcast
    # formula's bits.
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
            for p in (pts, pts[:4], pts[:1], pts[0], *pts[:300]):
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


@pytest.mark.parametrize(
    "name, params, seed, slots",
    [
        ("moment", {"m": 199999, "n": 0}, None, 1),
        ("random_poly", {"m": 15, "n": 46, "degree": 2}, 1, 2),
        ("random_poly", {"m": 2, "n": 5, "degree": 3}, 7, 3),
        ("affine_graph", {"m": 3}, None, 1),
        ("parabola", {}, None, 1),
    ],
)
def test_eval_map_gathers_only_each_terms_factors(name, params, seed, slots):
    # One column per slot: the largest number of nonzero exponents in a
    # term, and at least 1, not one per domain variable.
    f = builtin_map(name, params, seed=seed)
    factors = [sum(e > 0 for e in exps) for coord in f.coords for _, exps in coord]
    assert len(f._columns) == max(1, *factors) == slots
    const = MapDescriptor(3, 2, (((2.0, (0, 0, 0)),), ()))
    assert len(const._columns) == 1
    assert np.array_equal(eval_map(const, [np.nan, 1.0, 2.0]), [2.0, 0.0])


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


def test_moment_over_many_variables_builds_only_its_coordinates():
    # The 10^6-exponent cap lets moment take m+1 = 10^6 variables at n = 0;
    # building every degree-1 exponent tuple first would hold d^2 integers.
    tracemalloc.start()
    try:
        f = builtin_map("moment", {"m": 2999, "n": 2})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.coords[2] == ((1.0, (0, 0, 1) + (0,) * 2997),)
    assert peak < 10 * 2**20


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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        builtin_map("random_poly", {"m": 1, "n": 1, "degree": 1}, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        MapDescriptor.from_json_dict(
            {"builtin": "random_poly", "params": {"m": 1, "n": 1, "degree": 1}, "seed": -1}
        )


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
    # A builtin is written in the explicit form and reads back as the same
    # map; the flat builtin spelling, which earlier versions wrote, still reads.
    f = builtin_map("random_poly", {"m": 1, "n": 2, "degree": 2}, seed=9)
    data = f.to_json_dict()
    assert sorted(data) == ["codomain_dim", "coords", "domain_dim"]
    flat = {"builtin": "random_poly", "m": 1, "n": 2, "degree": 2, "seed": 9}
    for g in (MapDescriptor.from_json_dict(data), MapDescriptor.from_json_dict(flat)):
        assert g.coords == f.coords
        assert g == f
        assert map_digest(g) == map_digest(f)
    assert not hasattr(f, "builtin")


def test_json_builtin_form_with_nested_params():
    f = builtin_map("random_poly", {"m": 1, "n": 2, "degree": 2}, seed=9)
    g = MapDescriptor.from_json_dict(
        {"builtin": "random_poly", "params": {"m": 1, "n": 2, "degree": 2}, "seed": 9}
    )
    assert g.coords == f.coords
    # Output is the explicit form whichever form came in.
    assert canonical_json(g.to_json_dict()) == canonical_json(f.to_json_dict())


def test_json_coords_form_readme_example():
    # The README's map-file example, its "..." elisions dropped, gives no
    # dimensions: they come from the exponent vectors and the coordinates.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r'`(\{"coords": .*?\})`', readme).group(1)
    f = MapDescriptor.from_json_dict(json.loads(example.replace(", ...", "")))
    assert (f.domain_dim, f.codomain_dim) == (2, 1)
    assert f.coords == (((1.0, (1, 0)),),)
    explicit = {"domain_dim": 2, "codomain_dim": 1, "coords": [[{"c": 1.0, "e": [1, 0]}]]}
    assert f.to_json_dict() == explicit
    assert map_digest(f) == map_digest(MapDescriptor.from_json_dict(explicit))


def test_json_coords_form_checks_given_dimensions():
    coords = [[{"c": 1.0, "e": [1, 0]}], [{"c": 2.0, "e": [0, 3]}, {"c": 1.0, "e": [0, 0]}]]
    f = MapDescriptor.from_json_dict({"coords": coords, "codomain_dim": 2})
    assert (f.domain_dim, f.codomain_dim) == (2, 2)
    assert MapDescriptor.from_json_dict({"coords": coords, "domain_dim": 2}) == f
    with pytest.raises(ValueError, match="codomain_dim"):
        MapDescriptor.from_json_dict({"coords": coords, "codomain_dim": 3})
    with pytest.raises(ValueError, match="domain_dim"):
        MapDescriptor.from_json_dict({"coords": coords, "domain_dim": 3})
    with pytest.raises(ValueError, match=r"malformed map descriptor: .*lengths \[1, 2\]"):
        MapDescriptor.from_json_dict({"coords": [[{"c": 1.0, "e": [1]}, {"c": 1.0, "e": [1, 0]}]]})
    with pytest.raises(ValueError, match="malformed map descriptor: .*no term"):
        MapDescriptor.from_json_dict({"coords": [[], []]})


def test_digest_same_for_both_json_forms():
    # Every builtin spelling, flat and nested under params, and the explicit
    # form a builtin is written in all read as the map builtin_map builds.
    for name, params, seed in [
        ("affine_graph", {"m": 2}, None),
        ("parabola", {}, None),
        ("moment", {"m": 1, "n": 5}, None),
        ("random_poly", {"m": 1, "n": 4, "degree": 3}, 42),
    ]:
        f = builtin_map(name, params, seed=seed)
        for data in (
            {"builtin": name, **params, "seed": seed},
            {"builtin": name, "params": params, "seed": seed},
            f.to_json_dict(),
        ):
            g = MapDescriptor.from_json_dict(data)
            assert g.coords == f.coords
            assert g == f
            assert map_digest(g) == map_digest(f)
        assert len(map_digest(f)) == 64


# map_digest of the builtins as hex literals: a stored record names its map
# by this hash, so how a builtin is built must not move it.
_FROZEN_DIGESTS = [
    ("affine_graph", {"m": 0}, None,
     "9b75f426210df1ba7b969b9ca88694e36ad346784dcf9b0cf26b5d71e2dc6076"),
    ("affine_graph", {"m": 1}, None,
     "4fb478ce6eee2ef3a34123b9d480d0d1e725431751926cdc6c17ff7c6706dc3e"),
    ("affine_graph", {"m": 2}, None,
     "a2c5226dcdcb72607837b04a59edda1afd4f97fb2c0e0686cf295aedcecbdd01"),
    ("affine_graph", {"m": 3}, None,
     "a9a09b2d358aac8276e3ef32f72c11128068d03b21107979e5378414dff1bbb3"),
    ("parabola", {}, None,
     "d7637beb9fa9ede8244f0cee7126a829bc897aae83325bee9c8ae4aafd144174"),
    ("moment", {"m": 0, "n": 2}, None,
     "2710bf39f14a0129acabe0dd87b1fe555b82c7217a43e454aa61d9a3dc2ba6b8"),
    ("moment", {"m": 1, "n": 5}, None,
     "704ba7999eb50b69c048ce24651e37c88566aa265a5817fd71ee097cc49f74b0"),
    ("moment", {"m": 2, "n": 9}, None,
     "7ecef3c5ce105a898f014e6209752dda0231d8af3f284dac487fe3a5385e46b6"),
    ("random_poly", {"m": 1, "n": 4, "degree": 3}, 42,
     "ff0c89797fbe1dd168619fb1bb0d1b70466d3ce3b57267af63921e926d2283b1"),
    ("random_poly", {"m": 1, "n": 4, "degree": 3}, 0,
     "b10d135ca4bad1cd36b2c747b3cb964c7f655096735dcf0916b45f5bc85d771f"),
    ("random_poly", {"m": 2, "n": 5, "degree": 2}, 7,
     "c1ccfc8417383e3a3ca95aee463b5813d6d8ac09873ed11e461a6b600a01f004"),
    ("random_poly", {"m": 1, "n": 4, "degree": 3}, 2**32,
     "ff7747ecff729300866f32b252f24628aaa7b6af74a72986c9e913809247135e"),
    ("random_poly", {"m": 1, "n": 4, "degree": 3}, 2**64 + 1,
     "d573fea9e4f9f16e44ca8f4aa77bb2eb15a2023b720e7fb413f0009bddfe52bf"),
    ("random_poly", {"m": 3, "n": 10, "degree": 2}, 10**30,
     "312517e55dcd051d532253ed6b9e25636220b64f2cd7cbc9da8a3634bbd662ec"),
]


@pytest.mark.parametrize("name, params, seed, digest", _FROZEN_DIGESTS)
def test_builtin_digests_frozen(name, params, seed, digest):
    assert map_digest(builtin_map(name, params, seed=seed)) == digest


_STREAM_SEEDS = [*range(256), 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 7, 10**30]


def test_uniform_stream_matches_numpy():
    # 37 values run past three coordinates of random_poly(1, 4, 3), which
    # has 10 terms each.  Seeds past 2^32 take SeedSequence's longer word
    # lists, past 2^128 its mixing of words beyond the pool of four.
    for seed in _STREAM_SEEDS:
        expected = np.random.default_rng(seed).uniform(-1.0, 1.0, 37)
        assert _uniform_stream(seed, 37) == expected.tolist(), seed
    # The witness benchmark's two map shapes at every map seed it uses, each
    # coordinate checked against its own numpy draw, in coordinate order.
    for m, n, degree, base in [(1, 4, 3, 42), (2, 5, 2, 7)]:
        for seed in range(base, base + 65):
            f = builtin_map("random_poly", {"m": m, "n": n, "degree": degree}, seed=seed)
            rng = np.random.default_rng(seed)
            for coord in f.coords:
                assert [c for c, _ in coord] == rng.uniform(-1.0, 1.0, len(coord)).tolist()


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


_README_MAP = ["--builtin", "random_poly", "--m", "1", "--n", "4", "--degree", "3",
               "--map-seed", "42"]

_NO_MASKED_ARRAYS_SCRIPT = """
import contextlib, io, sys
import numpy as np
from parlines import cli
from parlines.maps import builtin_map, eval_map
f = builtin_map("random_poly", {"m": 1, "n": 4, "degree": 3}, seed=42)
g = builtin_map("parabola")
eval_map(f, np.zeros((3, 2)))
eval_map(g, np.zeros((3, 1)))
print("numpy.ma" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify-witness", *sys.argv[1:]])
print(code, "numpy.random" in sys.modules)
"""


def test_building_maps_imports_no_masked_arrays(tmp_path):
    # np.union1d goes through np.unique, which imports numpy.ma: about 15 ms
    # per witness command.  verify-witness on a random_poly map draws its
    # coefficients in parlines.maps, so it imports no numpy.random either
    # (6-9 ms).  A fresh interpreter, as the tests load both modules.
    record = tmp_path / "witness.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["find-witness", *_README_MAP, "--case", "b", "--seed", "7",
                     "--out", str(record)]) == 0
    src = str(Path(parlines.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS_SCRIPT,
                           *_README_MAP, "--record", str(record)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "False"]
