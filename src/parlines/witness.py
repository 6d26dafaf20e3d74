"""Numerical witness searches for parallel / collinear image configurations.

A witness is a 4-tuple of domain points whose images under a given map
exhibit one of four degeneracies:

* ``parallel_b``: pairs {x+du, -x+dv} and {x-du, -x-dv} with parallel image
  differences, sampled from the sphere S(V) x S(V+V);
* ``parallel_a``: pairs {x-du, x+du} and {-x-dv, -x+dv} (each pair inside a
  small ball around an antipodal pair of sphere points), ||u|| = ||v|| =
  1/sqrt(2);
* ``collinear``: four pairwise distinct points x+du, x-du, -x+dv, -x-dv whose
  images affinely span at most 2 dimensions, ||u|| = ||v|| = 1;
* ``linear_dependence``: the same 4-tuples with linearly dependent
  normalized images (the spherical variant).

Residuals are scale-free squared singular-value ratios, so "witness found"
means the residual is at or below a configurable tolerance; a norm at or
below the fixed ``_ZERO_EPS`` counts as zero.  Each case has
one residual, ``_residual_from_points`` on a stack of 4-tuples of points in
record order; the search objective, the record, ``verify_witness``, the
singularity estimate and the public one-row residuals all go through it.
Each case's manifold has one implementation too, ``_projector``: the
search projects onto it, and ``verify_witness`` checks a stored
configuration with that same projection.
The search is a seeded multi-start local minimization (Nelder-Mead in
ambient coordinates, re-projected onto the constraint manifold inside the
objective); it is fully deterministic for a fixed seed and configuration.
Its Nelder-Mead, ``minimize``, is a port of scipy's that the tests hold to
scipy bit for bit; it runs a search's restarts, and the singularity
estimate's samples, as lanes of one simplex stack in lockstep.  ``find_1d``
is separate: for maps R -> R^2 it constructs a guaranteed parallel pair by
an intermediate-value argument instead of optimizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .charclass import DimensionParams
from .jsonio import canonical_json
from .maps import MapDescriptor, eval_map, map_digest

__all__ = [
    "CASES",
    "canonical_case",
    "Configuration",
    "SearchConfig",
    "WitnessRecord",
    "WitnessVerification",
    "SingularityEstimate",
    "CollinearityAmbiguity",
    "parallel_residual",
    "collinear_residual",
    "lin_dep_residual",
    "record_points",
    "search",
    "verify_witness",
    "find_1d",
    "estimate_singularity_dim",
    "theorem_guarantee",
]

CASES = ("parallel_b", "parallel_a", "collinear", "linear_dependence", "line_1d")

_ALIASES = {
    "a": "parallel_a",
    "b": "parallel_b",
    "parallel_a": "parallel_a",
    "parallel_b": "parallel_b",
    "collinear": "collinear",
    "lindep": "linear_dependence",
    "linear_dependence": "linear_dependence",
    "line_1d": "line_1d",
}

# Point-coincidence threshold used for the distinctness checks in records.
_DISTINCT_EPS = 1e-9

# A norm or singular value at or below this counts as zero in every residual:
# the search, the record and verify_witness share it, so a record cannot be
# found under one threshold and checked under another.
_ZERO_EPS = 1e-13


def _require_positive(name: str, value: float) -> None:
    # nan fails every comparison, so "value <= 0" alone lets it through.
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def canonical_case(case: str) -> str:
    try:
        return _ALIASES[case]
    except KeyError:
        raise ValueError(f"unknown case {case!r}; choose from {sorted(set(_ALIASES.values()))}") from None


@dataclass
class Configuration:
    """A search point: center x on the unit sphere plus offsets u, v.

    The norm constraints on u and v depend on the case; ``delta`` is the
    offset scale and must lie in (0, 1/2) so that the four points stay in
    disjoint neighbourhoods of x and -x.
    """

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    delta: float

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if not (0.0 < self.delta < 0.5):
            raise ValueError("delta must lie in (0, 1/2)")
        if self.x.shape != self.u.shape or self.x.shape != self.v.shape:
            raise ValueError("x, u, v must have equal shapes")

    def to_json_dict(self) -> dict:
        return {
            "x": [float(a) for a in self.x],
            "u": [float(a) for a in self.u],
            "v": [float(a) for a in self.v],
            "delta": float(self.delta),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Configuration":
        return cls(
            x=np.array(data["x"], dtype=float),
            u=np.array(data["u"], dtype=float),
            v=np.array(data["v"], dtype=float),
            delta=float(data["delta"]),
        )


@dataclass
class SearchConfig:
    """Tuning knobs of the multi-start search; defaults are the contract.

    ``restarts`` independent Nelder-Mead runs are seeded from streams
    derived from (seed, restart index); each run gets ``max_iters``
    iterations in each of 3 rounds, with the initial simplex scale starting
    at 0.5 and shrinking by ``_SHRINK`` between rounds.  A residual at or
    below ``tol`` is a witness, and the search stops at the first one.
    """

    delta: float = 0.25
    tol: float = 1e-10
    restarts: int = 100
    max_iters: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 0.5):
            raise ValueError("delta must lie in (0, 1/2)")
        _require_positive("tol", self.tol)
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _json_typed(data: dict, key: str, kind: type):
    """``data[key]`` if it is a JSON boolean (``kind`` bool) or integer
    (``kind`` int, which a boolean is not); a TypeError otherwise."""
    value = data[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        name = "a boolean" if kind is bool else "an integer"
        raise TypeError(f"{key} must be {name}, got {value!r}")
    return value


@dataclass
class WitnessRecord:
    """One search outcome, replayable byte-for-byte through canonical JSON."""

    case: str
    found: bool
    points: list
    residual: float
    min_pairwise_distance: float
    pair_sets_distinct: bool
    config: Configuration | None
    map_digest: str
    seed: int
    restarts_used: int

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "found": self.found,
            "points": [[float(a) for a in p] for p in self.points],
            "residual": float(self.residual),
            "min_pairwise_distance": float(self.min_pairwise_distance),
            "pair_sets_distinct": self.pair_sets_distinct,
            "config": None if self.config is None else self.config.to_json_dict(),
            "map_digest": self.map_digest,
            "seed": self.seed,
            "restarts_used": self.restarts_used,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WitnessRecord":
        try:
            return cls(
                case=canonical_case(data["case"]),
                found=_json_typed(data, "found", bool),
                points=[np.array(p, dtype=float) for p in data["points"]],
                residual=float(data["residual"]),
                min_pairwise_distance=float(data["min_pairwise_distance"]),
                pair_sets_distinct=_json_typed(data, "pair_sets_distinct", bool),
                config=None
                if data.get("config") is None
                else Configuration.from_json_dict(data["config"]),
                map_digest=str(data["map_digest"]),
                seed=_json_typed(data, "seed", int),
                restarts_used=_json_typed(data, "restarts_used", int),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed witness record: {exc}") from exc

    def canonical(self) -> str:
        return canonical_json(self.to_json_dict())


@dataclass
class WitnessVerification:
    """Independent re-check of a record against a map."""

    passed: bool
    residual: float
    checks: dict
    messages: list

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            # null where the residual is NaN, as JSON has no NaN.
            "residual": None if math.isnan(self.residual) else float(self.residual),
            "checks": dict(self.checks),
            "messages": list(self.messages),
        }


@dataclass
class SingularityEstimate:
    """Local dimension estimate of a solution set around a base witness."""

    base: WitnessRecord
    samples: int
    singular_values: list
    estimated_dim: int
    expected_lower_bound: int

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "samples": self.samples,
            "singular_values": [float(s) for s in self.singular_values],
            "estimated_dim": self.estimated_dim,
            "expected_lower_bound": self.expected_lower_bound,
        }


class CollinearityAmbiguity(RuntimeError):
    """The sampled 1-d image is neither clearly collinear nor clearly planar."""


# -- residuals ---------------------------------------------------------------


def parallel_residual(a, b) -> float:
    """Normalized Gram determinant of two vectors, in [0, 1].

    (|a|^2 |b|^2 - <a,b>^2) / (|a|^2 |b|^2): zero iff the vectors are
    parallel; by convention also zero when either norm is <= _ZERO_EPS.
    NaN if the vectors or their products are not finite.
    """
    a = np.asarray(a, dtype=float)
    zero = np.zeros_like(a)
    # The chords of the images (0, a, 0, b) are a and b bit for bit.
    imgs = np.stack([zero, a, zero, np.asarray(b, dtype=float)])
    with np.errstate(all="ignore"):
        return float(_residual_rows("parallel_b", imgs[None])[0])


def collinear_residual(q0, q1, q2, q3) -> float:
    """(sigma_3 / sigma_1)^2 of the difference matrix [q1-q0, q2-q0, q3-q0].

    Zero iff the four IMAGE points affinely span at most 2 dimensions (they
    fit in a plane, the degenerate configuration the estimator samples);
    scale-free in the images.  NaN if a difference is not finite.
    """
    imgs = np.asarray((q0, q1, q2, q3), dtype=float)
    with np.errstate(all="ignore"):
        return float(_residual_rows("collinear", imgs[None])[0])


def lin_dep_residual(p0, p1, p2, p3, f: MapDescriptor) -> float:
    """(sigma_4 / sigma_1)^2 of the normalized image matrix of four DOMAIN points.

    Images are normalized onto the unit sphere before the test (a zero image
    makes the family dependent outright, hence residual 0).  NaN if an
    image or its norm is not finite.
    """
    return float(_residual_from_points("linear_dependence", f, [(p0, p1, p2, p3)])[0])


def _residual_rows(case: str, imgs: np.ndarray) -> np.ndarray:
    """The case residual of each row of an (M, 4, c) stack of images.

    Every residual is computed here, one row at a time or many: each row
    gets the arithmetic of the one-row formula, bit for bit.  Non-finite
    input gives NaN, which is never clamped to 0 and never reaches an SVD.
    Callers run it under ``np.errstate(all="ignore")``: overflow is expected
    here and shows as NaN instead.
    """
    if case in ("parallel_b", "parallel_a", "line_1d"):
        chords = imgs[:, 1::2] - imgs[:, 0::2]
        a2, b2, ab = _chord_products(chords)
        zero = np.minimum(a2, b2) <= _ZERO_EPS * _ZERO_EPS
        prod = a2 * b2
        finite = prod < np.inf
        if not finite.all():
            # Squares overflow above about 1e154: where the product does and
            # the chords are finite, scale each chord by its largest |entry|,
            # which leaves the residual as it is.
            big = ~finite & np.isfinite(chords).all(axis=(1, 2))
            scale = np.abs(chords[big]).max(axis=2, keepdims=True)
            a2[big], b2[big], ab[big] = _chord_products(chords[big] / np.where(scale > 0, scale, 1.0))
            prod[big] = a2[big] * b2[big]
            finite |= big
        val = (prod - ab * ab) / prod
        # Clamped at 0 from below; val <= prod / prod rounds to at most 1,
        # so it needs no clamp from above.
        out = np.where(val > 0.0, val, 0.0)
        out[zero] = 0.0
        # A non-finite chord gives NaN.
        return np.where(finite, out, np.nan)
    if case == "collinear":
        # The SVD takes each (c, 3) matrix of columns q1-q0, q2-q0, q3-q0.
        return _sv_ratio(np.swapaxes(imgs[:, 1:] - imgs[:, :1], 1, 2))
    if case == "linear_dependence":
        norms = np.linalg.norm(imgs, axis=2)
        finite = np.isfinite(norms)
        if not finite.all():
            # Squares overflow above about 1e154: scale by the largest |entry|.
            big = ~finite & np.isfinite(imgs).all(axis=2)
            scale = np.abs(imgs[big]).max(axis=1)
            norms[big] = scale * np.linalg.norm(imgs[big] / scale[:, None], axis=1)
        out = np.full(len(imgs), np.nan)
        ok = np.isfinite(norms).all(axis=1)
        zero = ok & (norms <= _ZERO_EPS).any(axis=1)
        out[zero] = 0.0
        ok &= ~zero
        out[ok] = _sv_ratio(np.swapaxes(imgs[ok] / norms[ok][:, :, None], 1, 2))
        return out
    raise ValueError(f"unknown case {case!r}")


def _chord_products(chords: np.ndarray):
    """|a|^2, |b|^2 and <a, b> of each (2, c) pair of chords a, b."""
    # Stacked (1, c) @ (c, 1) matmuls are BLAS ddot per row, as a @ b.
    a2, b2 = (chords[:, :, None, :] @ chords[:, :, :, None])[:, :, 0, 0].T
    ab = (chords[:, 0, None, :] @ chords[:, 1, :, None])[:, 0, 0]
    return a2, b2, ab


def _sv_ratio(mats: np.ndarray) -> np.ndarray:
    """(sigma_min / sigma_1)^2 of each (c, k) matrix, with sigma_min the
    k-th singular value: 0 if c < k or sigma_1 <= _ZERO_EPS, NaN if the
    matrix is not finite."""
    k = mats.shape[2]
    ok = np.isfinite(mats).all(axis=(1, 2))
    out = np.where(ok, 0.0, np.nan)
    if mats.shape[1] < k or not ok.any():
        return out
    s = np.linalg.svd(mats if ok.all() else mats[ok], compute_uv=False)
    # Squared by the C library's pow, one float at a time, which keeps the
    # records' bits: numpy's vectorised **2 (x*x) differs in the last bit
    # for about 0.1% of inputs.
    ratio = [r**2 for r in (s[:, k - 1] / s[:, 0]).tolist()]
    out[ok] = np.where(s[:, 0] <= _ZERO_EPS, 0.0, ratio)
    return out


# -- configurations and objectives -------------------------------------------


# Per case, the record slot of each point of the sampled 4-tuple
# (x+du, x-du, -x+dv, -x-dv), the collinear order, so that the pairs are
# slots (0,1) and (2,3).
_SLOTS = {
    "parallel_b": (1, 3, 0, 2),
    "parallel_a": (1, 0, 3, 2),
    "collinear": (0, 1, 2, 3),
    "linear_dependence": (0, 1, 2, 3),
}


def _points(case: str, x, u, v, delta: float) -> np.ndarray:
    """A configuration's points in record order: (4, d) for one
    configuration, (M, 4, d) for M of them stacked in x, u and v."""
    try:
        p0, p1, p2, p3 = _SLOTS[case]
    except KeyError:
        raise ValueError(f"no configuration layout for case {case!r}") from None
    du = delta * u
    dv = delta * v
    nx = -x
    out = np.empty(x.shape[:-1] + (4, x.shape[-1]))
    np.add(x, du, out=out[..., p0, :])
    np.subtract(x, du, out=out[..., p1, :])
    np.add(nx, dv, out=out[..., p2, :])
    np.subtract(nx, dv, out=out[..., p3, :])
    return out


def record_points(case: str, c: Configuration) -> list:
    """The record's 4 points, ordered so the pairs are (0,1) and (2,3)."""
    return list(_points(canonical_case(case), c.x, c.u, c.v, c.delta))


_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _residual_from_points(case: str, f: MapDescriptor, pts) -> np.ndarray:
    """The case residual of each 4-tuple of points in record order: the one
    residual kernel.

    ``pts`` is an (M, 4, d) array or nested list; returns the M residuals.
    The parallel cases compare the chords f(p1) - f(p0) and f(p3) - f(p2).
    A residual whose images overflow is NaN, not 0.
    """
    pts = np.asarray(pts, dtype=float)
    m, _, d = pts.shape
    with np.errstate(all="ignore"):
        imgs = eval_map(f, pts.reshape(4 * m, d)).reshape(m, 4, f.codomain_dim)
        return _residual_rows(case, imgs)


def _pair_sets_distinct(pts, eps: float = _DISTINCT_EPS) -> bool:
    """Whether {p0, p1} and {p2, p3} differ as unordered point sets."""
    d = lambda a, b: float(np.linalg.norm(np.asarray(a) - np.asarray(b)))  # noqa: E731
    same_direct = d(pts[0], pts[2]) <= eps and d(pts[1], pts[3]) <= eps
    same_crossed = d(pts[0], pts[3]) <= eps and d(pts[1], pts[2]) <= eps
    return not (same_direct or same_crossed)


def _min_pairwise(pts) -> float:
    arr = [np.asarray(p, dtype=float) for p in pts]
    return min(
        float(np.linalg.norm(arr[i] - arr[j]))
        for i in range(4)
        for j in range(i + 1, 4)
    )


# -- local minimization -------------------------------------------------------

# Lanes per lockstep batch of restarts or singularity samples.  It bounds the
# simplex stack, and so the memory, whatever --restarts or --samples asks.
_BATCH = 64

# The factor by which each polish round scales the initial simplex down.
_SHRINK = 0.25


def _unit(vecs: np.ndarray):
    """Each vector along the last axis scaled to norm 1, and the mask of the
    vectors whose norm is below 1e-12 (those are left unscaled)."""
    # A stacked (1, k) @ (k, 1) matmul is BLAS ddot per vector, as
    # vec @ vec, and sqrt(vec @ vec) is np.linalg.norm's value.
    norms = np.sqrt(vecs[..., None, :] @ vecs[..., :, None])[..., 0]
    tiny = norms[..., 0] < 1e-12
    norms[tiny] = 1.0
    return vecs / norms, tiny


class _MinimizeResult(NamedTuple):
    """Per-lane results of :func:`minimize`; ``nfev`` and ``nit`` are the
    lanes' counts summed, as Python ints."""

    x: np.ndarray  # (K, N): each lane's best vertex
    fun: np.ndarray  # (K,)
    nfev: int
    nit: int
    lane_nfev: np.ndarray  # (K,)
    lane_nit: np.ndarray  # (K,)
    # (K,): scipy's status, 0 converged, 1 maxfev, 2 maxiter, 99 stopped at
    # ``stop`` (scipy's code for a run its callback halted)
    status: np.ndarray


# Factors of xbar and of the worst vertex in the reflection, the expansion
# and the outside and inside contractions, one row each.  scipy writes
# 2*xbar - 1*sim[-1], 3*xbar - 2*sim[-1], 1.5*xbar - 0.5*sim[-1] and
# 0.5*xbar + 0.5*sim[-1]; a - b is a + (-b) to the bit, so one form with
# signed factors gives all four of scipy's points.
_XBAR_FACTORS = np.array([2.0, 3.0, 1.5, 0.5])[:, None, None]
_WORST_FACTORS = np.array([-1.0, -2.0, -0.5, 0.5])[:, None, None]
# Up to this many lanes, an iteration evaluates the reflections and all
# three second points in one call: for a few lanes a call costs about as
# much as four points do.
_SPECULATE = 4


def _step(code: int) -> int:
    """scipy's choice in one iteration, from six comparisons: bit i of code
    is fxr < f[0], fxr < f[-2], fxr < f[-1], fe < fxr, foc <= fxr and
    fic < f[-1] for i = 0..5 (fe, foc, fic: the values of the expansion and
    the outside and inside contractions).  Returns the row of the point
    that replaces the worst vertex (0 reflection, 1 expansion, 2 and 3 the
    contractions), or 4 to shrink."""
    bit = [(code >> i) & 1 for i in range(6)]
    if bit[0]:
        return 1 if bit[3] else 0
    if bit[1]:
        return 0
    if bit[2]:
        return 2 if bit[4] else 4
    return 3 if bit[5] else 4


# _step for every code, and the weights that turn the comparisons into one.
_STEPS = np.array([_step(code) for code in range(64)])
_BITS = np.array([1, 2, 4, 8, 16, 32])


def _sorted(sim: np.ndarray, fsim: np.ndarray, rows: np.ndarray):
    # Each lane by argsort of its values, as scipy sorts its one simplex;
    # rows is the column of lane indices.
    ind = np.argsort(fsim, axis=1)
    return sim[rows, ind], fsim[rows, ind]


def minimize(fun, simplices, maxiter: int, maxfev: int, xatol: float, fatol: float,
             stop: float | None = None, prune: bool = False) -> _MinimizeResult:
    """Nelder-Mead on K simplices in lockstep, each lane bit for bit as scipy's.

    ``simplices`` is a (K, N+1, N) stack of initial simplices and ``fun``
    maps an (M, N) stack of points to their M values.  Each lane is a port
    of scipy 1.17's ``_minimize_neldermead`` for the one setting used here:
    standard coefficients (reflect 1, expand 2, contract and shrink 1/2), no
    bounds, and no callback but the stop below.  An iteration evaluates the
    reflections of all lanes in one call of ``fun``, their expansions or
    contractions in a second (in the first, for a few lanes) and the shrunk
    vertices in a third.  Each lane takes its own branch under a mask and
    keeps its own counts and stop, the fev cap that may stop a shrink half
    done included.
    The arithmetic, the comparisons and the sorts follow scipy's order of
    operations in every lane, so each lane's result is scipy's to the last
    bit.  ``fun`` must be a pure function of each point: a value never
    depends on the other points of a call, nor on whether scipy would have
    asked for it.

    With a ``stop``, a lane stops after the first iteration that leaves its
    best value at or below it: scipy's run halted by a callback that raises
    ``StopIteration`` once ``intermediate_result.fun <= stop``, status 99
    included.  With ``prune`` as well, the lanes behind the first lane to
    stop there stop with it, wherever they are; a caller that stops at the
    first lane ending at or below ``stop`` reads none behind it.
    """
    sim = np.array(simplices, dtype=float)
    k, n1, n = sim.shape
    x_out = np.empty((k, n))
    f_out = np.empty(k)
    nfev_out = np.zeros(k, dtype=np.int64)
    nit_out = np.zeros(k, dtype=np.int64)

    # scipy evaluates the vertices in order until the fev cap.
    m = min(n1, maxfev)
    fsim = np.full((k, n1), np.inf)
    if m:
        fsim[:, :m] = fun(sim[:, :m].reshape(k * m, n)).reshape(k, m)
    nfev = np.full(k, m, dtype=np.int64)
    nit = np.ones(k, dtype=np.int64)
    lanes = np.arange(k)  # the lane of each working row
    at = np.arange(k)
    # scipy sorts twice here; the default argsort is not stable, so ties
    # may come out in another order if one of the sorts is dropped.
    sim, fsim = _sorted(*_sorted(sim, fsim, at[:, None]), at[:, None])
    # Bounds on every lane's counts: below the caps, no lane needs the
    # per-lane cap checks.
    fev_bound, nit_bound = m, 1
    halted = np.zeros(k, dtype=bool)
    # scipy calls its callback after an iteration's sort, never before the
    # first iteration.
    iterated = False

    while True:
        # A lane leaves where scipy's loop ends: halted by the stop, at a
        # cap, or converged (a break, so that lane is not sorted again).
        # fsim is sorted, so its spread max |f0 - fj| is f[-1] - f[0], to
        # the bit.
        flat = fsim[:, -1] - fsim[:, 0] <= fatol
        done = flat & (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol) \
            if flat.any() else flat
        if nit_bound >= maxiter:
            done |= nit >= maxiter
        if fev_bound >= maxfev:
            done |= nfev >= maxfev
        if stop is not None and iterated:
            hit = fsim[:, 0] <= stop
            if hit.any():
                halted[lanes[hit]] = True
                done |= hit
                if prune:
                    done |= lanes > lanes[hit][0]
        if done.any():
            ids = lanes[done]
            x_out[ids] = sim[done, 0]
            f_out[ids] = np.min(fsim[done], axis=1)
            nfev_out[ids] = nfev[done]
            nit_out[ids] = nit[done]
            keep = ~done
            sim, fsim, nfev, nit, lanes = sim[keep], fsim[keep], nfev[keep], nit[keep], lanes[keep]
            if not lanes.size:
                break
            at = np.arange(len(lanes))
        iterated = True

        # pts holds xr, then the three second points: the expansion and the
        # outside and inside contractions.
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        pts = _XBAR_FACTORS * xbar + _WORST_FACTORS * sim[:, -1]
        w = len(lanes)
        if w <= _SPECULATE:
            vals = fun(pts.reshape(4 * w, n)).reshape(4, w)
        else:
            vals = np.zeros((4, w))
            vals[0] = fun(pts[0])
        fxr, fworst = vals[0], fsim[:, -1]
        cmp = np.empty((6, w), dtype=bool)
        np.less(fxr, fsim[:, [0, -2, -1]].T, out=cmp[:3])
        # Any step but the reflection evaluates a second point, and needs a
        # fev left after xr's.
        nfev += 1
        second = cmp[0] | ~cmp[1]
        capped = None
        if fev_bound + 1 >= maxfev:
            capped = second & (nfev >= maxfev)
            second &= ~capped
        if w > _SPECULATE and second.any():
            row = np.where(cmp[0], 1, np.where(cmp[2], 2, 3))[second]
            vals[row, at[second]] = fun(pts[row, at[second]])
        np.less(vals[1], fxr, out=cmp[3])
        np.less_equal(vals[2], fxr, out=cmp[4])
        np.less(vals[3], fworst, out=cmp[5])
        step = _STEPS[_BITS @ cmp]
        if capped is not None:
            # A cap that stops the second point leaves the simplex as it is.
            step[capped] = 5
        nfev += second
        fev_bound += 2
        nit_bound += 1
        replace = step < 4
        nit += replace
        if replace.all():
            sim[:, -1] = pts[step, at]
            fsim[:, -1] = vals[step, at]
        else:
            sim[replace, -1] = pts[step[replace], at[replace]]
            fsim[replace, -1] = vals[step[replace], at[replace]]
            s = np.flatnonzero(step == 4)
            if s.size:
                room = (maxfev - nfev[s])[:, None]
                best = sim[s, :1]
                moved = best + 0.5 * (sim[s, 1:] - best)
                # scipy moves vertex j, then evaluates it; the cap stops the
                # shrink at the first vertex it cannot evaluate, moved.
                j = np.arange(n)
                move, ev = j <= room, j < room
                block, fblock = sim[s], fsim[s]
                block[:, 1:][move] = moved[move]
                if ev.any():
                    fblock[:, 1:][ev] = fun(moved[ev])
                sim[s], fsim[s] = block, fblock
                nfev[s] += ev.sum(axis=1)
                nit[s] += room[:, 0] >= n
                fev_bound += n
        sim, fsim = _sorted(sim, fsim, at[:, None])

    status = np.where(halted, 99,
                      np.where(nfev_out >= maxfev, 1, np.where(nit_out >= maxiter, 2, 0)))
    return _MinimizeResult(
        x_out, f_out, int(nfev_out.sum()), int(nit_out.sum()), nfev_out, nit_out, status
    )


def _multistart(objective, start, count: int, first: int, max_iters: int, step: float,
                rounds: int, stop: float, prune: bool = False):
    """Yield (point, value) for each of the starts ``start(0)``, ...,
    ``start(count - 1)``, in order: the best of ``rounds`` rounds of
    Nelder-Mead with a shrinking initial simplex.

    The starts run as lanes of lockstep batches: ``first`` lanes, then four
    times as many each time, up to ``_BATCH``; a batch runs once the one
    before it has been read.  Every round restarts a lane from its best
    point with a simplex of scale step * _SHRINK**round and ``max_iters``
    iterations (4 * ``max_iters`` evaluations), and a lane leaves in the
    round that brings its value to ``stop`` or below, at the end of that
    iteration (see :func:`minimize`).  With ``prune`` the lanes behind the
    first lane at or below ``stop`` leave too, and their pairs are not to
    be read.
    """
    lo, width = 0, min(first, _BATCH)
    while lo < count:
        xs = np.array([start(i) for i in range(lo, min(count, lo + width))], dtype=float)
        fxs = objective(xs)
        live = np.arange(len(xs))
        for r in range(rounds):
            base = xs[live, None]
            res = minimize(
                objective,
                np.concatenate([base, base + step * _SHRINK**r * np.eye(xs.shape[1])], axis=1),
                maxiter=max_iters,
                maxfev=4 * max_iters,
                xatol=1e-14,
                fatol=1e-18,
                stop=stop,
                prune=prune,
            )
            better = res.fun < fxs[live]
            xs[live[better]] = res.x[better]
            fxs[live[better]] = res.fun[better]
            reached = fxs <= stop
            live = live[~reached[live]]
            if prune and reached.any():
                live = live[live < np.flatnonzero(reached)[0]]
            if not live.size:
                break
        yield from zip(xs, fxs)
        lo, width = lo + width, min(4 * width, _BATCH)


def _projector(case: str, d: int):
    """Map ambient points z = (x, u, v) in R^(3d), an (M, 3d) stack, onto
    the case's manifold.

    x goes to the unit sphere.  ``parallel_b`` puts (u, v) jointly on the
    unit sphere of R^(2d); the other cases normalise u and v separately to
    radius 1/sqrt(2) (``parallel_a``) or 1.  Returns (x, u, v) and the mask
    of degenerate rows.
    """
    def project(zs):
        if case == "parallel_b":
            x, bad = _unit(zs[:, :d])
            w, bad_w = _unit(zs[:, d:])
            return x, w[:, :d], w[:, d:], bad | bad_w
        units, bad = _unit(zs.reshape(len(zs), 3, d))
        u, v = units[:, 1], units[:, 2]
        if case == "parallel_a":
            u, v = _SQRT_HALF * u, _SQRT_HALF * v
        return units[:, 0], u, v, bad.any(axis=1)

    return project


def search(f: MapDescriptor, case: str, cfg: SearchConfig | None = None) -> WitnessRecord:
    """Multi-start minimization of the case residual over the configuration
    manifold.

    Restarts run in order up to the first whose residual is at or below
    ``cfg.tol``, which is a witness; each stops as soon as it gets there.
    The result is the (residual, restart) minimum over the restarts run, so
    over all of them when none reaches the tolerance.

    The restarts run as lanes of lockstep batches: cases a and b, which
    mostly stop after a restart or two, start at one lane and widen, the
    other cases start at ``_BATCH`` lanes.  Within a batch, the restarts
    behind the first one at or below the tolerance are dropped.  The
    batching changes no result: the pick reads the restarts in order.
    """
    case = canonical_case(case)
    if case == "line_1d":
        raise ValueError("line_1d witnesses come from find_1d, not search")
    cfg = cfg or SearchConfig()
    ambient = 3 * f.domain_dim
    project = _projector(case, f.domain_dim)

    def objective(zs):
        x, u, v, degenerate = project(zs)
        vals = _residual_from_points(case, f, _points(case, x, u, v, cfg.delta))
        vals[degenerate | np.isnan(vals)] = 1.5
        return vals

    best_val, best_z = math.inf, None
    # Cases a and b mostly stop after a restart or two: their batches start
    # narrow.  The collinear and lindep batches start at full width: on 64
    # random cubics R^2 -> R^5, a one-lane start made collinear searches
    # about 10% slower and lindep ones about 45% faster: no gain in sum.
    first = 1 if case in ("parallel_b", "parallel_a") else _BATCH
    restarts = _multistart(
        objective, lambda i: np.random.default_rng([cfg.seed, i]).standard_normal(ambient),
        cfg.restarts, first, cfg.max_iters, 0.5, 3, cfg.tol, prune=True,
    )
    for executed, (z, val) in enumerate(restarts, 1):
        if val < best_val:
            best_val, best_z = val, z
        if best_val <= cfg.tol:
            break

    x, u, v, degenerate = project(best_z[None])
    if degenerate[0]:  # pragma: no cover - a degenerate optimum never wins
        raise RuntimeError("search collapsed onto a degenerate configuration")
    config = Configuration(x[0], u[0], v[0], cfg.delta)
    rec = _record(case, f, record_points(case, config), cfg.tol, config, cfg.seed, executed)
    if math.isnan(rec.residual):
        raise ValueError("no configuration tried has a finite residual: "
                         "the map's values overflow the float range")
    return rec


def _record(case: str, f: MapDescriptor, pts, tol: float, config: Configuration | None = None,
            seed: int = 0, restarts_used: int = 0) -> WitnessRecord:
    """The record of 4 points in record order, found if their residual is at or below tol."""
    residual = float(_residual_from_points(case, f, [pts])[0])
    return WitnessRecord(
        case=case,
        found=residual <= tol,
        points=list(pts),
        residual=residual,
        min_pairwise_distance=_min_pairwise(pts),
        pair_sets_distinct=_pair_sets_distinct(pts),
        config=config,
        map_digest=map_digest(f),
        seed=seed,
        restarts_used=restarts_used,
    )


# -- verification ---------------------------------------------------------------


def verify_witness(
    rec: WitnessRecord, f: MapDescriptor, tol: float = 1e-10
) -> WitnessVerification:
    """Re-derive everything checkable about a record from the map itself.

    Recomputes the residual from the stored points (and its agreement with
    the stored value), the config-to-points consistency, the per-case
    distinctness requirements, and the map digest.
    """
    _require_positive("tol", tol)
    case = canonical_case(rec.case)
    checks: dict[str, bool] = {}
    messages: list[str] = []

    pts = [np.asarray(p, dtype=float) for p in rec.points]
    if len(pts) != 4 or any(p.shape != (f.domain_dim,) for p in pts):
        raise ValueError("record must contain 4 points of the map's domain dimension")
    if rec.config is not None and rec.config.x.shape != (f.domain_dim,):
        raise ValueError("record config must have the map's domain dimension")

    checks["digest_matches"] = rec.map_digest == map_digest(f)
    if not checks["digest_matches"]:
        messages.append("map digest differs from the supplied map")

    if rec.config is not None:
        # The config must stay where the search's own projection puts it.
        c = rec.config
        *proj, degenerate = _projector(case, f.domain_dim)(np.concatenate([c.x, c.u, c.v])[None])
        moves = {name: float(np.linalg.norm(p[0] - q))
                 for name, p, q in zip("xuv", proj, (c.x, c.u, c.v))}
        worst = max(moves, key=lambda name: (math.isnan(moves[name]), moves[name]))
        checks["config_norms"] = not degenerate[0] and moves[worst] <= 1e-9
        if degenerate[0]:
            messages.append(f"the config has a zero block: it has no point on the {case} manifold")
        elif not checks["config_norms"]:
            messages.append(f"{worst} lies {moves[worst]:.2g} off the {case} manifold")
        expected = record_points(case, rec.config)
        dev = max(
            float(np.max(np.abs(np.asarray(e) - p))) for e, p in zip(expected, pts)
        )
        checks["points_match_config"] = dev <= 1e-9
        if dev > 1e-9:
            messages.append(f"points deviate from configuration by {dev!r}")

    residual = float(_residual_from_points(case, f, [pts])[0])
    checks["residual_agrees_with_record"] = abs(residual - rec.residual) <= 1e-12
    if not checks["residual_agrees_with_record"]:
        messages.append(
            f"recomputed residual {residual!r} vs recorded {rec.residual!r}"
        )
    checks["residual_within_tol"] = residual <= tol
    if math.isnan(residual):
        messages.append("residual is not finite: the map's values overflow the float range")
    elif residual > tol:
        messages.append(f"residual {residual!r} exceeds tol {tol!r}")

    if case == "line_1d":
        x0, x1, y0, y1 = (float(p[0]) for p in pts)
        checks["ordering"] = x0 < y0 < y1 < x1
        if not checks["ordering"]:
            messages.append("expected ordering x0 < y0 < y1 < x1")
    elif case == "parallel_b":
        d01 = float(np.linalg.norm(pts[0] - pts[1]))
        d23 = float(np.linalg.norm(pts[2] - pts[3]))
        checks["pairs_nondegenerate"] = min(d01, d23) > _DISTINCT_EPS
        checks["pair_sets_distinct"] = _pair_sets_distinct(pts)
        if not checks["pairs_nondegenerate"]:
            messages.append("a pair has coincident endpoints")
        if not checks["pair_sets_distinct"]:
            messages.append("the two pairs coincide as sets")
    else:
        checks["points_distinct"] = _min_pairwise(pts) > _DISTINCT_EPS
        if not checks["points_distinct"]:
            messages.append("the four points are not pairwise distinct")

    return WitnessVerification(
        passed=all(checks.values()),
        residual=residual,
        checks=checks,
        messages=messages,
    )


# -- the 1-dimensional construction ---------------------------------------------


# Entries of the pairwise chord table find_1d computes at a time.
_CHORD_BLOCK = 1 << 18
# The largest |image| find_1d works with unscaled.
_HUGE_IMAGE = 2.0 ** 500


def _widest_chord(imgs: np.ndarray) -> tuple[int, int]:
    """(i, j), i <= j, of the widest chord between sampled plane images:
    the first maximum of |imgs[i] - imgs[j]|^2 in row-major order, as
    ``argmax`` of the whole table finds it.

    The table is symmetric to the bit and 0 on its diagonal, so the first
    maximum lies above the diagonal unless every entry is 0.  Only that part
    is computed, a block of rows at a time, so memory stays flat in the
    number of samples.
    """
    n = len(imgs)
    x, y = imgs[:, 0], imgs[:, 1]
    rows = max(1, _CHORD_BLOCK // n)
    best, at = 0.0, (0, 0)
    for start in range(0, n - 1, rows):
        stop = min(n, start + rows)
        # Entries (i, j) with start <= i < stop and j > start; d0*d0 + d1*d1
        # is the einsum of the whole table, bit for bit.
        dx = x[start:stop, None] - x[None, start + 1 :]
        dy = y[start:stop, None] - y[None, start + 1 :]
        dist2 = dx * dx + dy * dy
        below = np.arange(stop - start)
        dist2[:, : stop - start][below[:, None] > below[: n - start - 1]] = -1.0
        k = int(np.argmax(dist2))
        i, j = divmod(k, n - start - 1)
        if dist2[i, j] > best:
            best, at = dist2[i, j], (start + i, start + 1 + j)
    return at


def find_1d(
    f: MapDescriptor,
    interval: tuple[float, float],
    tol: float = 1e-12,
    samples: int = 257,
) -> WitnessRecord:
    """A guaranteed parallel chord pair for a map R -> R^2 on [a, b].

    Picks the two samples x0 < x1 with the widest image separation, takes e
    normal to f(x1) - f(x0), and bisects the height rho(y) = <f(y) - f(x0), e>
    to the half-level c = rho(z)/2 on both sides of an interior extremum z.
    The four points satisfy x0 < y0 < y1 < x1 and the chords f(x1)-f(x0),
    f(y1)-f(y0) are parallel (both normal heights differ by c - c = 0 ...
    up to bisection tolerance, reported as the residual).

    If the sampled image is collinear within tol, any increasing 4 points
    witness the statement; a gray zone in between raises
    :class:`CollinearityAmbiguity` rather than guessing.
    """
    if f.domain_dim != 1 or f.codomain_dim != 2:
        raise ValueError("find_1d needs a map R -> R^2")
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval must be finite, got {(a, b)!r}")
    if not (a < b):
        raise ValueError("interval must satisfy a < b")
    _require_positive("tol", tol)
    if samples < 8:
        raise ValueError("need at least 8 samples")

    ts = np.linspace(a, b, samples)
    with np.errstate(all="ignore"):
        imgs = eval_map(f, ts[:, None])
    if not np.isfinite(imgs).all():
        raise ValueError("a sampled image is not finite: the map's values overflow the float range")
    # Squares of images above about 1e154 overflow.  Scaling by a power of
    # two is exact, so below _HUGE_IMAGE (scale 1) no bit changes.
    top = float(np.abs(imgs).max())
    scale = 2.0 ** -math.frexp(top)[1] if top > _HUGE_IMAGE else 1.0
    imgs = imgs * scale
    centered = imgs - imgs.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    flat = s[0] <= _ZERO_EPS
    ratio = 0.0 if flat else float((s[1] / s[0]) ** 2)

    if flat or ratio <= tol:
        # Collinear image: any increasing 4-tuple works.
        qs = np.linspace(a, b, 6)[1:5]
        pts = [np.array([qs[0]]), np.array([qs[3]]), np.array([qs[1]]), np.array([qs[2]])]
    elif ratio <= tol * 1e4:
        raise CollinearityAmbiguity(
            f"sampled collinearity ratio {ratio!r} is within 1e4 of tol {tol!r}; "
            "tighten tol or refine the interval"
        )
    else:
        i0, i1 = _widest_chord(imgs)
        chord = imgs[i1] - imgs[i0]
        e = np.array([-chord[1], chord[0]]) / float(np.linalg.norm(chord))

        def rho(t: float) -> float:
            return float((eval_map(f, np.array([t])) * scale - imgs[i0]) @ e)

        heights = (imgs - imgs[i0]) @ e
        interior = heights[i0 + 1 : i1]
        if interior.size == 0 or float(np.max(np.abs(interior))) <= _ZERO_EPS:
            raise CollinearityAmbiguity(
                "no interior height extremum between the extremal samples"
            )
        iz = i0 + 1 + int(np.argmax(np.abs(interior)))
        z = float(ts[iz])
        c = rho(z) / 2.0

        def bisect(lo: float, hi: float, glo: float) -> float:
            # invariant: g changes sign on [lo, hi], g(lo) = glo
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                gmid = rho(mid) - c
                if gmid == 0.0 or (hi - lo) <= 1e-15 * max(1.0, abs(lo), abs(hi)):
                    return mid
                if (glo < 0) == (gmid < 0):
                    lo, glo = mid, gmid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        x0, x1 = float(ts[i0]), float(ts[i1])
        y0 = bisect(x0, z, rho(x0) - c)
        y1 = bisect(z, x1, rho(z) - c)
        if y1 < y0:
            y0, y1 = y1, y0
        pts = [np.array([x0]), np.array([x1]), np.array([y0]), np.array([y1])]

    return _record("line_1d", f, pts, tol)


# -- singularity dimension estimate ----------------------------------------------


def estimate_singularity_dim(
    f: MapDescriptor,
    base: WitnessRecord,
    n_samples: int = 32,
    cfg: SearchConfig | None = None,
    noise_scale: float = 0.05,
    ratio_threshold: float = 1e-4,
) -> SingularityEstimate:
    """Estimate the local dimension of the collinearity solution set.

    Perturbs the base 4-tuple in free coordinates (all 4(m+1) of them, not
    the search manifold), re-minimizes the collinear residual, and counts
    singular values of the centered displacement matrix above
    ratio_threshold * sigma_1.  The comparison value is the covering bound
    4(m+1) - (n-1) for maps R^(m+1) -> R^(n+1).

    Of ``cfg`` it reads ``tol``, ``seed`` and ``max_iters``.  ``cfg.tol`` is
    the bound the base record must verify at and that a sample must reach
    to count; each sample stops once its residual is at or below
    ``cfg.tol**2``.  The residual is a squared singular-value ratio, so a
    sample's relative error is about its square root, cfg.tol, far below any
    useful ``ratio_threshold``.  ``cfg.seed`` seeds the perturbations, and
    each sample runs 4 rounds of ``cfg.max_iters`` iterations.
    """
    cfg = cfg or SearchConfig()
    if canonical_case(base.case) != "collinear":
        raise ValueError("the base record must be a collinear witness")
    _require_positive("noise_scale", noise_scale)
    _require_positive("ratio_threshold", ratio_threshold)
    ver = verify_witness(base, f, tol=cfg.tol)
    if not ver.passed:
        raise ValueError(f"base record fails verification: {ver.messages}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    d = f.domain_dim
    p0 = np.concatenate([np.asarray(p, dtype=float) for p in base.points])

    def objective(zs):
        vals = _residual_from_points("collinear", f, zs.reshape(len(zs), 4, d))
        vals[np.isnan(vals)] = 1.5
        return vals

    # Keep the re-minimization local: the simplex scale follows the noise,
    # otherwise samples drift along the solution set and the displacement
    # directions no longer reflect its dimension at the base point.
    step = min(0.5, 0.5 * noise_scale)
    # The samples run as lanes in lockstep batches of _BATCH.
    solutions = [z for z, val in _multistart(
        objective,
        lambda i: p0 + noise_scale * np.random.default_rng([cfg.seed, i, 1]).standard_normal(4 * d),
        n_samples, _BATCH, cfg.max_iters, step, 4, cfg.tol**2,
    ) if val <= cfg.tol]

    if solutions:
        mat = np.array(solutions)
        mat = mat - mat.mean(axis=0)
        svals = np.linalg.svd(mat, compute_uv=False)
        estimated = (
            int(np.sum(svals >= ratio_threshold * svals[0])) if svals[0] > 0 else 0
        )
    else:
        svals = np.zeros(0)
        estimated = 0

    return SingularityEstimate(
        base=base,
        samples=len(solutions),
        singular_values=[float(s) for s in svals],
        estimated_dim=estimated,
        expected_lower_bound=4 * d - (f.codomain_dim - 2),
    )


# -- guarantee classification ------------------------------------------------------


def theorem_guarantee(f: MapDescriptor, case: str) -> tuple[bool, str]:
    """Whether existence of the requested witness is forced by dimensions.

    For domain R^(m+1), with ``DimensionParams``' n = m + 2^r - 1, parallel
    pairs and collinearity are guaranteed into codomains of dimension at most
    n + 1 (separated pairs only off the boundary m+1 = 2^(r-1)), linear
    dependence into one more, and the 1-d construction exactly for R -> R^2.
    """
    case = canonical_case(case)
    m = f.domain_dim - 1
    if case == "line_1d":
        ok = f.domain_dim == 1 and f.codomain_dim == 2
        return ok, (
            "guaranteed: intermediate-value construction applies to R -> R^2"
            if ok
            else "construction needs domain dimension 1 and codomain dimension 2"
        )
    p = DimensionParams(m)
    limit = p.n + 1 + (1 if case == "linear_dependence" else 0)
    parts = []
    ok = f.codomain_dim <= limit
    parts.append(
        f"codomain dimension {f.codomain_dim} {'<=' if ok else '>'} {limit} "
        f"(m = {m}, r = {p.r})"
    )
    if case == "parallel_a" and p.boundary:
        parts.append("m+1 is a power of two, separated pairs are not forced")
        ok = False
    label = "guaranteed" if ok else "exploratory"
    return ok, f"{label}: " + "; ".join(parts)
