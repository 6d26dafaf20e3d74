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
one residual, ``_residual_rows`` on the images of a stack of 4-tuples of
points in record order (``_residual_from_points`` evaluates the map and
calls it); the search's stops and picks, the record, ``verify_witness``, the
singularity estimate and the public one-row residuals all go through it.
Each case's manifold has one implementation too, ``_projector``: the
search projects onto it, and ``verify_witness`` checks a stored
configuration with that same projection.
The search is a seeded multi-start Gauss-Newton on the manifold
coordinates, re-projected onto the manifold after every step; it is fully
deterministic for a fixed seed and configuration.  Its solver,
``minimize``, drives one vector per case to 0 (``_system``: the part of one
image vector orthogonal to the span of the others); the vector only chooses
the steps, and every stop, pick and record reads the residual.  It runs a
search's restarts, and the singularity estimate's samples, as lanes of
lockstep batches.  ``find_1d`` is separate: for maps R -> R^2 it
constructs a guaranteed parallel pair by an intermediate-value argument
instead of optimizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

import numpy as np

from .charclass import DimensionParams
from .jsonio import canonical_json, json_typed
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


def _fields_json(rec) -> dict:
    """A record's JSON: its dataclass fields in field order, with numpy
    arrays as lists and nested records as their own JSON.  Nothing else is
    converted, so ``canonical_json`` still refuses a numpy bool."""
    def value(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, list):
            return [value(w) for w in v]
        return v.to_json_dict() if is_dataclass(v) else v

    return {fld.name: value(getattr(rec, fld.name)) for fld in fields(rec)}


def canonical_case(case: str) -> str:
    try:
        return _ALIASES[case]
    except KeyError:
        raise ValueError(f"unknown case {case!r}; choose from {sorted(CASES)}") from None


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
        return _fields_json(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Configuration":
        if not isinstance(data, dict):
            raise ValueError("malformed witness record: config must be a JSON object or null")
        x, u, v = (np.array(json_typed(data, k, list[float])) for k in "xuv")
        return cls(x=x, u=u, v=v, delta=json_typed(data, "delta", float))


# A search that finds no witness runs every restart for max_iters steps, and
# a step evaluates 3d + 1 configurations: at both caps, find-witness --case
# collinear found nothing on random cubics R^2 -> R^6 and R^4 -> R^16 (map
# seed 0) in 15-23 s and 75-105 s on a shared 2-vCPU VM; at the defaults,
# 100 restarts of 40 steps, R^4 -> R^16 took 3-4 s.
_MAX_RESTARTS = 256
_MAX_ITERS = 500


@dataclass
class SearchConfig:
    """Tuning knobs of the multi-start search; defaults are the contract.

    ``restarts`` independent Gauss-Newton runs start from streams derived
    from (seed, restart index); each run takes at most ``max_iters`` steps.
    A residual at or below ``tol`` is a witness, and the search stops at
    the first one.  ``delta`` lies in (1e-9, 1/2): above the distinctness
    threshold of the records, so that the four points can be told apart.
    ``restarts`` and ``max_iters`` are capped at 256 and 500.
    """

    delta: float = 0.25
    tol: float = 1e-10
    restarts: int = 100
    max_iters: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        # At delta <= _DISTINCT_EPS the closest two of the four points, at
        # sqrt(2)*delta or 2*delta, can be no farther apart than the
        # distinctness threshold, so a search would report non-witnesses.
        if not (_DISTINCT_EPS < self.delta < 0.5):
            raise ValueError(f"delta must lie in ({_DISTINCT_EPS:g}, 1/2), got {self.delta!r}")
        _require_positive("tol", self.tol)
        for name, cap in (("restarts", _MAX_RESTARTS), ("max_iters", _MAX_ITERS)):
            if not 1 <= getattr(self, name) <= cap:
                raise ValueError(f"{name} must lie in 1..{cap}, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
        return _fields_json(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "WitnessRecord":
        if not isinstance(data, dict):
            raise ValueError("malformed witness record: expected a JSON object")
        try:
            return cls(
                case=canonical_case(data["case"]),
                found=json_typed(data, "found", bool),
                points=[np.array(p) for p in json_typed(data, "points", list[list[float]])],
                residual=json_typed(data, "residual", float),
                min_pairwise_distance=json_typed(data, "min_pairwise_distance", float),
                pair_sets_distinct=json_typed(data, "pair_sets_distinct", bool),
                config=None
                if data.get("config") is None
                else Configuration.from_json_dict(data["config"]),
                map_digest=json_typed(data, "map_digest", str),
                seed=json_typed(data, "seed", int),
                restarts_used=json_typed(data, "restarts_used", int),
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
        out = _fields_json(self)
        if math.isnan(self.residual):  # null, as JSON has no NaN
            out["residual"] = None
        return out


@dataclass
class SingularityEstimate:
    """Local dimension estimate of a solution set around a base witness."""

    base: WitnessRecord
    samples: int
    singular_values: list
    estimated_dim: int
    expected_lower_bound: int

    def to_json_dict(self) -> dict:
        return _fields_json(self)


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
    return float(_residual_rows("parallel_b", imgs[None])[0])


def collinear_residual(q0, q1, q2, q3) -> float:
    """(sigma_3 / sigma_1)^2 of the difference matrix [q1-q0, q2-q0, q3-q0].

    Zero iff the four IMAGE points affinely span at most 2 dimensions (they
    fit in a plane, the degenerate configuration the estimator samples);
    scale-free in the images.  NaN if a difference is not finite.
    """
    imgs = np.asarray((q0, q1, q2, q3), dtype=float)
    return float(_residual_rows("collinear", imgs[None])[0])


def lin_dep_residual(p0, p1, p2, p3, f: MapDescriptor) -> float:
    """(sigma_4 / sigma_1)^2 of the normalized image matrix of four DOMAIN points.

    Images are normalized onto the unit sphere before the test (a zero image
    makes the family dependent outright, hence residual 0).  NaN if an
    image or its norm is not finite.
    """
    return float(_residual_from_points("linear_dependence", f, [(p0, p1, p2, p3)])[0])


def _scores(case: str, imgs: np.ndarray, worst=False) -> np.ndarray:
    """The solver's score of each row: its residual, with a NaN residual
    and the rows flagged in ``worst`` scored 1.5, above every residual in
    [0, 1]."""
    vals = _residual_rows(case, imgs)
    vals[worst | np.isnan(vals)] = 1.5
    return vals


@np.errstate(all="ignore")
def _residual_rows(case: str, imgs: np.ndarray) -> np.ndarray:
    """The case residual of each row of an (M, 4, c) stack of images.

    Every residual is computed here, one row at a time or many: each row
    gets the arithmetic of the one-row formula, bit for bit.  Non-finite
    input gives NaN, which is never clamped to 0 and never reaches an SVD.
    Overflow is expected here and shows as NaN instead, so floating-point
    warnings are off inside.
    """
    if case in ("parallel_b", "parallel_a", "line_1d"):
        chords = imgs[:, 1::2] - imgs[:, 0::2]
        a2, b2 = _dots(chords, chords).T
        ab = _dots(chords[:, 0], chords[:, 1])
        zero = np.minimum(a2, b2) <= _ZERO_EPS * _ZERO_EPS
        prod = a2 * b2
        finite = prod < np.inf
        if not finite.all():
            # Squares overflow above about 1e154: where the product does and
            # the chords are finite, scale each chord by its largest |entry|,
            # which leaves the residual as it is.
            big = ~finite & np.isfinite(chords).all(axis=(1, 2))
            scale = np.abs(chords[big]).max(axis=2, keepdims=True)
            small = chords[big] / np.where(scale > 0, scale, 1.0)
            a2[big], b2[big] = _dots(small, small).T
            ab[big] = _dots(small[:, 0], small[:, 1])
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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> along the last axis of two stacks of vectors.

    A stacked (1, k) @ (k, 1) matmul is BLAS ddot per vector, as a @ b, so
    sqrt(_dots(a, a)) is np.linalg.norm's value to the bit.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@np.errstate(all="ignore")
def _sv_ratio(mats: np.ndarray) -> np.ndarray:
    """(sigma_min / sigma_1)^2 of each (c, k) matrix, with sigma_min the
    k-th singular value: 0 if c < k or sigma_1 <= _ZERO_EPS, NaN if the
    matrix is not finite.  A zero matrix divides 0 by 0 before its ratio is
    set to 0, so floating-point warnings are off inside."""
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


# -- configurations ------------------------------------------------------------


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


def _images(f: MapDescriptor, pts) -> np.ndarray:
    """The (M, 4, c) images of an (M, 4, d) array or nested list of
    4-tuples of points; inf where a value overflows."""
    pts = np.asarray(pts, dtype=float)
    m, _, d = pts.shape
    with np.errstate(all="ignore"):
        return eval_map(f, pts.reshape(4 * m, d)).reshape(m, 4, f.codomain_dim)


def _residual_from_points(case: str, f: MapDescriptor, pts) -> np.ndarray:
    """The case residual of each 4-tuple of points in record order: the one
    residual kernel.

    ``pts`` is an (M, 4, d) array or nested list; returns the M residuals.
    The parallel cases compare the chords f(p1) - f(p0) and f(p3) - f(p2).
    A residual whose images overflow is NaN, not 0.
    """
    return _residual_rows(case, _images(f, pts))


def _distances(pts) -> np.ndarray:
    """The 4x4 table of distances between the points of a 4-tuple."""
    pts = np.asarray(pts, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(_dots(diff, diff))


# -- Gauss-Newton ---------------------------------------------------------------

# Starts per lockstep batch of restarts or singularity samples.  It bounds the
# stacks, and so the memory, whatever --restarts or --samples asks.
_LANES = 4

# The forward-difference step of the Jacobian.
_H = 1e-7
# pinv's cut of small singular values, relative to the largest.  On a search
# manifold the Jacobian's columns along the projection's radial directions
# are round-off (about 1e-9); a smaller cut turns them into steps that the
# projection then undoes, and case b searches stall.
_RCOND = 1e-6
# The longest step a lane takes.
_MAX_STEP = 0.5


def _unit(vecs: np.ndarray):
    """Each vector along the last axis scaled to norm 1, and the mask of the
    vectors whose norm is below 1e-12 (those are left unscaled)."""
    norms = np.sqrt(_dots(vecs, vecs))
    tiny = norms < 1e-12
    norms[tiny] = 1.0
    return vecs / norms[..., None], tiny


def _system(case: str, imgs: np.ndarray) -> np.ndarray:
    """The vector that Gauss-Newton drives to 0 for each row of an (M, 4, c)
    stack of images: the part of one vector orthogonal to the span of some
    others, over its norm.  It only chooses the steps; the residual judges
    them.

    The vector is the chord f(p1) - f(p0) against f(p3) - f(p2) in the
    parallel cases, q3 - q0 against q1 - q0 and q2 - q0 (q_i the images)
    for collinear, and the last image against the other three for lindep.
    NaN where an image is not finite, or where a difference overflows.
    """
    with np.errstate(all="ignore"):
        if case in ("parallel_b", "parallel_a"):
            vecs = (imgs[:, 1::2] - imgs[:, 0::2])[:, ::-1]
        elif case == "collinear":
            vecs = imgs[:, 1:] - imgs[:, :1]
        else:
            vecs = imgs
        # Each vector scaled by its largest |entry|, which moves no span, so
        # that no square overflows above about 1e154.
        scale = np.abs(vecs).max(axis=2, keepdims=True)
        vecs = vecs / np.where(scale > 0, scale, 1.0)
        out = _unit(vecs[:, -1])[0]
        basis = []
        for vec in np.swapaxes(vecs[:, :-1], 0, 1):
            for e in basis:
                vec = vec - np.sum(vec * e, axis=1, keepdims=True) * e
            e = _unit(vec)[0]
            basis.append(e)
            out = out - np.sum(out * e, axis=1, keepdims=True) * e
    return out


class _MinimizeResult(NamedTuple):
    """Per-start results of :func:`minimize`, for the K starts it ran;
    ``nfev`` and ``nit`` are the lanes' counts summed, as Python ints."""

    x: np.ndarray  # (K, N): each start's best point
    fun: np.ndarray  # (K,): its residual
    nfev: int
    nit: int
    lane_nfev: np.ndarray  # (K,)
    lane_nit: np.ndarray  # (K,)


def minimize(evaluate, system, residual, start, count: int, steps: int, tol: float,
             project=None, prune: bool = False) -> _MinimizeResult:
    """Gauss-Newton from the starts ``start(0)``, ..., ``start(count - 1)``,
    points of R^N, as lanes of lockstep batches.

    ``evaluate`` maps an (M, N) stack of points to an (M, ...) array of
    values (the map's images, in a search); ``system`` maps values to the
    (M, c) vectors to drive to 0, and ``residual(zs, vals)`` gives the M
    residuals that judge the points ``zs`` from their values.  Each step
    makes one ``evaluate`` call, at every lane's point and the N points of
    its forward-difference Jacobian, and takes the minimum-norm step of
    the Jacobians' batched ``pinv``, capped at norm 0.5;
    ``project``, if given, maps the new points back onto a manifold.  A
    lane whose Jacobian is not finite takes no step, and so stops.  A lane
    stops once its residual is at or below ``tol``, or after ``steps``
    steps; its result is the best point it met.

    The starts run ``_LANES`` at a time, in order.  With ``prune``, the
    lanes behind the first lane at or below ``tol`` are dropped, and the
    batches behind it never run: the first start in order that reaches
    ``tol`` is the same at any lane width, as each lane's arithmetic is
    its own.
    """
    parts = []
    for lo in range(0, count, _LANES):
        z = np.array([start(i) for i in range(lo, min(count, lo + _LANES))], dtype=float)
        k, n = z.shape
        best, fun = z.copy(), np.full(k, np.inf)
        nfev, nit = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
        offsets = np.vstack([np.zeros(n), _H * np.eye(n)])
        at = np.arange(k)  # the lane of each working row
        for left in range(steps, -1, -1):
            # The points and, while steps are left, their Jacobians' points.
            rows = offsets if left else offsets[:1]
            vals = evaluate((z[:, None] + rows).reshape(-1, n))
            vals = vals.reshape(len(at), len(rows), *vals.shape[1:])
            nfev[at] += len(rows)
            val = residual(z, vals[:, 0])
            better = val < fun[at]
            best[at[better]], fun[at[better]] = z[better], val[better]
            live = val > tol
            hits = np.flatnonzero(fun <= tol)
            if prune and hits.size:
                live &= at < hits[0]
            at, z, vals = at[live], z[live], vals[live]
            if not (left and at.size):
                break
            vecs = system(vals.reshape(-1, *vals.shape[2:])).reshape(len(at), n + 1, -1)
            with np.errstate(all="ignore"):
                jac = np.swapaxes(vecs[:, 1:] - vecs[:, :1], 1, 2) / _H
            ok = np.isfinite(jac).all(axis=(1, 2))
            at, z, jac, vecs = at[ok], z[ok], jac[ok], vecs[ok]
            if not at.size:
                break
            step = (np.linalg.pinv(jac, rcond=_RCOND) @ vecs[:, 0, :, None])[..., 0]
            length = np.sqrt(_dots(step, step))
            z = z - step * (_MAX_STEP / np.maximum(length, _MAX_STEP))[:, None]
            if project is not None:
                z = project(z)
            nit[at] += 1
        parts.append((best, fun, nfev, nit))
        if prune and (fun <= tol).any():
            break
    x, fun, nfev, nit = (np.concatenate(p) for p in zip(*parts))
    return _MinimizeResult(x, fun, int(nfev.sum()), int(nit.sum()), nfev, nit)


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
    """Multi-start Gauss-Newton on the case's vector system over the
    configuration manifold.

    Each restart starts from a seeded point z = (x, u, v) of R^(3d) and
    takes up to ``cfg.max_iters`` steps (see :func:`minimize`), each
    projected back onto the manifold.  Restarts run in order up to the
    first whose residual is at or below ``cfg.tol``, which is a witness;
    each stops as soon as it gets there.  The result is that restart, or
    the (residual, restart) minimum over all of them when none reaches the
    tolerance.  The lane width changes no result.
    """
    case = canonical_case(case)
    if case == "line_1d":
        raise ValueError("line_1d witnesses come from find_1d, not search")
    cfg = cfg or SearchConfig()
    project = _projector(case, f.domain_dim)

    def evaluate(zs):
        x, u, v, _ = project(zs)
        return _images(f, _points(case, x, u, v, cfg.delta))

    def residual(zs, imgs):  # degenerate configurations score as NaN does
        return _scores(case, imgs, project(zs)[3])

    def start(i):
        return np.random.default_rng([cfg.seed, i]).standard_normal(3 * f.domain_dim)

    res = minimize(evaluate, lambda imgs: _system(case, imgs), residual, start, cfg.restarts,
                   cfg.max_iters, cfg.tol, lambda zs: np.concatenate(project(zs)[:3], axis=1),
                   prune=True)
    hits = np.flatnonzero(res.fun <= cfg.tol)
    best = int(hits[0]) if hits.size else int(np.argmin(res.fun))
    executed = best + 1 if hits.size else cfg.restarts

    x, u, v, degenerate = project(res.x[best][None])
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
    dist = _distances(pts)
    # {p0, p1} = {p2, p3} as sets if p0, p1 meet p2, p3 (row 0) or p3, p2 (row 1).
    same = dist[[[0, 1], [0, 1]], [[2, 3], [3, 2]]] <= _DISTINCT_EPS
    return WitnessRecord(
        case=case,
        found=residual <= tol,
        points=list(pts),
        residual=residual,
        min_pairwise_distance=float(dist[np.triu_indices(4, 1)].min()),
        pair_sets_distinct=not same.all(axis=1).any(),
        config=config,
        map_digest=map_digest(f),
        seed=seed,
        restarts_used=restarts_used,
    )


# -- verification ---------------------------------------------------------------


@np.errstate(all="ignore")
def verify_witness(
    rec: WitnessRecord, f: MapDescriptor, tol: float = SearchConfig.tol
) -> WitnessVerification:
    """Re-derive everything checkable about a record from the map itself.

    Rebuilds the record from the stored points and the map, and checks in
    this order: the map digest, the config (on the case's manifold, and
    giving the points), the stored distances, the stored residual, the
    residual within tol, the stored ``found`` flag against tol, and the
    per-case distinctness requirements.  Floating-point warnings are off
    inside: a record whose numbers reach the float limit overflows to inf
    or NaN, and the checks fail on those values.
    """
    _require_positive("tol", tol)
    case = canonical_case(rec.case)
    checks: dict[str, bool] = {}
    messages: list[str] = []

    def check(name: str, passed, message: str) -> None:
        # A Python bool: canonical_json refuses numpy's.
        checks[name] = bool(passed)
        if not passed:
            messages.append(message)

    pts = [np.asarray(p, dtype=float) for p in rec.points]
    if len(pts) != 4 or any(p.shape != (f.domain_dim,) for p in pts):
        raise ValueError("record must contain 4 points of the map's domain dimension")
    if rec.config is not None and rec.config.x.shape != (f.domain_dim,):
        raise ValueError("record config must have the map's domain dimension")
    rebuilt = _record(case, f, pts, tol)

    check("digest_matches", rec.map_digest == rebuilt.map_digest,
          "map digest differs from the supplied map")

    if rec.config is not None:
        # The config must stay where the search's own projection puts it.
        c = rec.config
        *proj, degenerate = _projector(case, f.domain_dim)(np.concatenate([c.x, c.u, c.v])[None])
        moves = {name: float(np.linalg.norm(p[0] - q))
                 for name, p, q in zip("xuv", proj, (c.x, c.u, c.v))}
        worst = max(moves, key=lambda name: (math.isnan(moves[name]), moves[name]))
        check("config_norms", not degenerate[0] and moves[worst] <= 1e-9,
              f"the config has a zero block: it has no point on the {case} manifold"
              if degenerate[0] else f"{worst} lies {moves[worst]:.2g} off the {case} manifold")
        dev = max(float(np.max(np.abs(e - p))) for e, p in zip(record_points(case, c), pts))
        check("points_match_config", dev <= 1e-9,
              f"points deviate from configuration by {dev!r}")

    stored = (rec.min_pairwise_distance, rec.pair_sets_distinct)
    recomputed = (rebuilt.min_pairwise_distance, rebuilt.pair_sets_distinct)
    check("distances_agree_with_record",
          abs(stored[0] - recomputed[0]) <= 1e-12 and stored[1] == recomputed[1],
          f"recomputed (min_pairwise_distance, pair_sets_distinct) {recomputed!r} "
          f"vs recorded {stored!r}")

    residual = rebuilt.residual
    check("residual_agrees_with_record", abs(residual - rec.residual) <= 1e-12,
          f"recomputed residual {residual!r} vs recorded {rec.residual!r}")
    check("residual_within_tol", rebuilt.found,
          "residual is not finite: the map's values overflow the float range"
          if math.isnan(residual) else f"residual {residual!r} exceeds tol {tol!r}")
    # A record does not store its tol, so the flag is read against --tol.
    check("found_agrees_with_record", rec.found == rebuilt.found,
          f"recorded found {rec.found} vs {rebuilt.found} at --tol {tol!r}")

    if case == "line_1d":
        x0, x1, y0, y1 = (float(p[0]) for p in pts)
        check("ordering", x0 < y0 < y1 < x1, "expected ordering x0 < y0 < y1 < x1")
    elif case == "parallel_b":
        dist = _distances(pts)
        check("pairs_nondegenerate", min(dist[0, 1], dist[2, 3]) > _DISTINCT_EPS,
              "a pair has coincident endpoints")
        check("pair_sets_distinct", rebuilt.pair_sets_distinct, "the two pairs coincide as sets")
    else:
        check("points_distinct", rebuilt.min_pairwise_distance > _DISTINCT_EPS,
              "the four points are not pairwise distinct")

    return WitnessVerification(
        passed=all(checks.values()), residual=residual, checks=checks, messages=messages
    )


# -- the 1-dimensional construction ---------------------------------------------


# The widest-chord scan takes time quadratic in the samples: find-1d took
# 2.1-2.6 s at this many on a 2-vCPU VM.
_MAX_1D_SAMPLES = 32768
# The largest |image| find_1d works with unscaled.
_HUGE_IMAGE = 2.0 ** 500


def _widest_chord(imgs: np.ndarray) -> tuple[int, int]:
    """(i, j), i <= j, of the widest chord between sampled plane images:
    the first maximum of |imgs[i] - imgs[j]|^2 in row-major order, as
    ``argmax`` of the whole table finds it.

    The table is symmetric to the bit and 0 on its diagonal, so the first
    maximum lies above the diagonal unless every entry is 0.  Only that part
    is computed, a row at a time, so memory stays flat in the number of
    samples; a row's maximum is kept only if it is strictly larger.
    """
    x, y = imgs[:, 0], imgs[:, 1]
    best, at = 0.0, (0, 0)
    for i in range(len(imgs) - 1):
        # Entries (i, j), j > i; dx*dx + dy*dy is the einsum of the whole
        # table, bit for bit.
        dx = x[i] - x[i + 1 :]
        dy = y[i] - y[i + 1 :]
        dist2 = dx * dx + dy * dy
        j = int(np.argmax(dist2))
        if dist2[j] > best:
            best, at = dist2[j], (i, i + 1 + j)
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
    :class:`CollinearityAmbiguity` rather than guessing.  An interval too
    narrow for its samples to be strictly increasing floats raises
    ValueError: the points it would give are not distinct.  So does one so
    wide that its width b - a overflows, before any sampling.
    """
    if f.domain_dim != 1 or f.codomain_dim != 2:
        raise ValueError("find_1d needs a map R -> R^2")
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval must be finite, got {(a, b)!r}")
    if not (a < b):
        raise ValueError("interval must satisfy a < b")
    if not math.isfinite(b - a):
        raise ValueError(
            f"interval {(a, b)!r} is too wide: its width b - a overflows the float range"
        )
    _require_positive("tol", tol)
    if not 8 <= samples <= _MAX_1D_SAMPLES:
        raise ValueError(f"samples must lie in 8..{_MAX_1D_SAMPLES}, got {samples}")

    ts = np.linspace(a, b, samples)
    if not (np.diff(ts) > 0).all():
        raise ValueError(
            f"interval {(a, b)!r} is too narrow: {samples} samples are not "
            "strictly increasing floats"
        )
    with np.errstate(all="ignore"):
        imgs = eval_map(f, ts[:, None])
    if not np.isfinite(imgs).all():
        raise ValueError("a sampled image is not finite: the map's values overflow the float range")
    # Squares of images above about 1e154 overflow.  Scaling by a power of
    # two is exact, so below _HUGE_IMAGE (scale 1) no bit changes.
    top = float(np.abs(imgs).max())
    scale = 2.0 ** -math.frexp(top)[1] if top > _HUGE_IMAGE else 1.0
    imgs = imgs * scale
    # 0 where the centered samples are flat (sigma_1 at most _ZERO_EPS).
    ratio = float(_sv_ratio((imgs - imgs.mean(axis=0))[None])[0])

    if ratio <= tol:
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
        pts = [np.array([x0]), np.array([x1]), np.array([y0]), np.array([y1])]

    return _record("line_1d", f, pts, tol)


# -- singularity dimension estimate ----------------------------------------------


# Each sample is a Newton projection, so the estimate's time grows with the
# samples: singularity took 0.8-1.3 s at this many on a 2-vCPU VM.
_MAX_SINGULARITY_SAMPLES = 1024


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
    the search manifold), projects each perturbed point back onto the
    collinear solution set by Gauss-Newton on the collinear system (a
    Newton projection: each step is the minimum-norm one), and counts
    singular values of the centered displacement matrix above
    ratio_threshold * sigma_1.  The comparison value is the covering bound
    4(m+1) - (n-1) for maps R^(m+1) -> R^(n+1).

    Of ``cfg`` it reads ``tol``, ``seed`` and ``max_iters``.  ``cfg.tol`` is
    the bound the base record must verify at and that a sample must reach
    to count; each sample stops once its residual is at or below
    ``cfg.tol**2``.  The residual is a squared singular-value ratio, so a
    sample's relative error is about its square root, cfg.tol, far below any
    useful ``ratio_threshold``.  ``cfg.seed`` seeds the perturbations, and
    each sample takes at most ``cfg.max_iters`` steps.  At most 1024
    samples are taken (ValueError above that).
    """
    cfg = cfg or SearchConfig()
    if canonical_case(base.case) != "collinear":
        raise ValueError("the base record must be a collinear witness")
    _require_positive("noise_scale", noise_scale)
    _require_positive("ratio_threshold", ratio_threshold)
    if not 1 <= n_samples <= _MAX_SINGULARITY_SAMPLES:
        raise ValueError(
            f"samples must lie in 1..{_MAX_SINGULARITY_SAMPLES}, got {n_samples}"
        )
    ver = verify_witness(base, f, tol=cfg.tol)
    if not ver.passed:
        raise ValueError(f"base record fails verification: {ver.messages}")

    d = f.domain_dim
    p0 = np.concatenate([np.asarray(p, dtype=float) for p in base.points])

    def start(i):
        # A huge noise_scale overflows to inf, and that sample fails.
        with np.errstate(over="ignore"):
            return p0 + noise_scale * np.random.default_rng([cfg.seed, i, 1]).standard_normal(4 * d)

    res = minimize(lambda zs: _images(f, zs.reshape(len(zs), 4, d)),
                   lambda imgs: _system("collinear", imgs),
                   lambda zs, imgs: _scores("collinear", imgs), start, n_samples,
                   cfg.max_iters, cfg.tol**2)
    solutions = res.x[res.fun <= cfg.tol]

    if len(solutions):
        mat = solutions - solutions.mean(axis=0)
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

    Coplanar 4-tuples (``collinear``) are forced into R^(n+1) on the
    boundary too, because they follow from Theorem B, which holds for every
    m.  Theorem B gives x0 != x1, y0 != y1 and {x0, x1} != {y0, y1} with
    f(x1) - f(x0) parallel to f(y1) - f(y0), so at most one coincidence
    among the four points.  If all four are distinct, the chords from f(x0)
    are v = f(x1) - f(x0), w = f(y0) - f(x0) and w + lambda v, which span
    at most a plane.  If two coincide, that shared point p has parallel
    chords to the other two, so the three images lie on one line, and any
    fourth point of the domain gives a 4-tuple whose images span at most
    that line and one more direction: coplanar again.
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
