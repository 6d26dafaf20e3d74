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
means the residual is at or below a configurable tolerance.  Each case has
one residual, ``_residual_from_points`` on the 4 points in record order; the
search objective, the record, ``verify_witness`` and the singularity
estimate all go through it.  The search is a seeded multi-start local
minimization (Nelder-Mead in ambient coordinates, re-projected onto the
constraint manifold inside the objective); it is fully deterministic for a
fixed seed and configuration.  ``find_1d`` is separate:
for maps R -> R^2 it constructs a guaranteed parallel pair by an
intermediate-value argument instead of optimizing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .charclass import r_of
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
    "config_to_points",
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
    iterations per polish round, with the initial simplex scale starting at
    ``step`` and shrinking by ``shrink`` between rounds.
    """

    delta: float = 0.25
    tol: float = 1e-10
    restarts: int = 100
    max_iters: int = 400
    seed: int = 0
    zero_eps: float = 1e-13
    step: float = 0.5
    shrink: float = 0.25
    polish_rounds: int = 2

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < 0.5):
            raise ValueError("delta must lie in (0, 1/2)")
        if self.tol <= 0 or self.zero_eps <= 0:
            raise ValueError("tol and zero_eps must be positive")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.step <= 0 or not (0.0 < self.shrink < 1.0):
            raise ValueError("step must be > 0 and shrink in (0, 1)")
        if self.polish_rounds < 0:
            raise ValueError("polish_rounds must be >= 0")


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
                found=bool(data["found"]),
                points=[np.array(p, dtype=float) for p in data["points"]],
                residual=float(data["residual"]),
                min_pairwise_distance=float(data["min_pairwise_distance"]),
                pair_sets_distinct=bool(data["pair_sets_distinct"]),
                config=None
                if data.get("config") is None
                else Configuration.from_json_dict(data["config"]),
                map_digest=str(data["map_digest"]),
                seed=int(data["seed"]),
                restarts_used=int(data["restarts_used"]),
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
            "residual": float(self.residual),
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


def parallel_residual(a, b, zero_eps: float = 1e-13) -> float:
    """Normalized Gram determinant of two vectors, in [0, 1].

    (|a|^2 |b|^2 - <a,b>^2) / (|a|^2 |b|^2): zero iff the vectors are
    parallel; by convention also zero when either norm is <= zero_eps.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a2 = float(a @ a)
    b2 = float(b @ b)
    if min(a2, b2) <= zero_eps * zero_eps:
        return 0.0
    ab = float(a @ b)
    val = (a2 * b2 - ab * ab) / (a2 * b2)
    return min(1.0, max(0.0, val))


def collinear_residual(q0, q1, q2, q3, zero_eps: float = 1e-13) -> float:
    """(sigma_3 / sigma_1)^2 of the difference matrix [q1-q0, q2-q0, q3-q0].

    Zero iff the four IMAGE points affinely span at most 2 dimensions (they
    fit in a plane, the degenerate configuration the estimator samples);
    scale-free in the images.
    """
    q = np.asarray((q0, q1, q2, q3), dtype=float)
    s = np.linalg.svd((q[1:] - q[0]).T, compute_uv=False)
    if s.size < 3 or s[0] <= zero_eps:
        return 0.0
    return float((s[2] / s[0]) ** 2)


def lin_dep_residual(p0, p1, p2, p3, f: MapDescriptor, zero_eps: float = 1e-13) -> float:
    """(sigma_4 / sigma_1)^2 of the normalized image matrix of four DOMAIN points.

    Images are normalized onto the unit sphere before the test (a zero image
    makes the family dependent outright, hence residual 0).
    """
    imgs = eval_map(f, np.asarray((p0, p1, p2, p3), dtype=float))
    norms = np.linalg.norm(imgs, axis=1)
    if np.min(norms) <= zero_eps:
        return 0.0
    cols = (imgs / norms[:, None]).T
    s = np.linalg.svd(cols, compute_uv=False)
    if s.size < 4 or s[0] <= zero_eps:
        return 0.0
    return float((s[3] / s[0]) ** 2)


# -- configurations and objectives -------------------------------------------


def config_to_points(c: Configuration) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sampled 4-tuple (x+du, x-du, -x+dv, -x-dv)."""
    return _tuple_points(c.x, c.u, c.v, c.delta)


def _tuple_points(x, u, v, delta: float):
    du = delta * u
    dv = delta * v
    return (x + du, x - du, -x + dv, -x - dv)


# Per case, the record's slots as indices into the 4-tuple of
# config_to_points, so that the pairs are slots (0,1) and (2,3).
_LAYOUTS = {
    "parallel_b": (2, 0, 3, 1),
    "parallel_a": (1, 0, 3, 2),
    "collinear": (0, 1, 2, 3),
    "linear_dependence": (0, 1, 2, 3),
}


def _points(case: str, x, u, v, delta: float) -> np.ndarray:
    """The (4, d) array of a configuration's points in record order."""
    try:
        order = _LAYOUTS[case]
    except KeyError:
        raise ValueError(f"no configuration layout for case {case!r}") from None
    tup = _tuple_points(x, u, v, delta)
    return np.array([tup[i] for i in order])


def record_points(case: str, c: Configuration) -> list:
    """The record's 4 points, ordered so the pairs are (0,1) and (2,3)."""
    return list(_points(canonical_case(case), c.x, c.u, c.v, c.delta))


_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _residual_from_points(case: str, f: MapDescriptor, pts, zero_eps: float) -> float:
    """The case residual of 4 points in record order: the one residual path.

    ``pts`` is a (4, d) array or a list of 4 points.  The parallel cases
    compare the chords f(p1) - f(p0) and f(p3) - f(p2).
    """
    pts = np.asarray(pts, dtype=float)
    if case == "linear_dependence":
        return lin_dep_residual(*pts, f=f, zero_eps=zero_eps)
    imgs = eval_map(f, pts)
    if case in ("parallel_b", "parallel_a", "line_1d"):
        return parallel_residual(imgs[1] - imgs[0], imgs[3] - imgs[2], zero_eps)
    if case == "collinear":
        return collinear_residual(*imgs, zero_eps=zero_eps)
    raise ValueError(f"unknown case {case!r}")


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


def _unit(vec: np.ndarray):
    # np.linalg.norm of a vector is sqrt(vec.dot(vec)); this is the same value.
    n = math.sqrt(vec @ vec)
    if n < 1e-12:
        return None
    return vec / n


def _nelder_mead(objective, z0: np.ndarray, cfg: SearchConfig) -> tuple[np.ndarray, float]:
    """A few rounds of Nelder-Mead with a shrinking initial simplex."""
    dim = z0.size
    x = np.asarray(z0, dtype=float)
    fx = float(objective(x))
    step = cfg.step
    for _ in range(1 + cfg.polish_rounds):
        simplex = np.vstack([x, x + step * np.eye(dim)])
        res = minimize(
            objective,
            x,
            method="Nelder-Mead",
            options={
                "maxiter": cfg.max_iters,
                "maxfev": 4 * cfg.max_iters,
                "xatol": 1e-14,
                "fatol": 1e-18,
                "initial_simplex": simplex,
            },
        )
        if float(res.fun) < fx:
            x = np.asarray(res.x, dtype=float)
            fx = float(res.fun)
        if fx == 0.0:
            break
        step *= cfg.shrink
    return x, fx


def _projector(case: str, d: int):
    """Map an ambient point z = (x, u, v) in R^(3d) onto the case's manifold.

    x goes to the unit sphere.  ``parallel_b`` puts (u, v) jointly on the
    unit sphere of R^(2d); the other cases normalise u and v separately to
    radius 1/sqrt(2) (``parallel_a``) or 1.  Returns (x, u, v), or None on
    a degenerate z.
    """
    radius = _SQRT_HALF if case == "parallel_a" else 1.0

    def project(z):
        x = _unit(z[:d])
        if case == "parallel_b":
            w = _unit(z[d:])
            u, v = (None, None) if w is None else (w[:d], w[d:])
        else:
            u, v = _unit(z[d : 2 * d]), _unit(z[2 * d :])
        if x is None or u is None or v is None:
            return None
        return x, radius * u, radius * v

    return project


def search(f: MapDescriptor, case: str, cfg: SearchConfig | None = None) -> WitnessRecord:
    """Multi-start minimization of the case residual over the configuration
    manifold.  Runs every restart (the result is the (residual, restart)
    minimum over all of them) unless some restart reaches residual exactly
    0.0, which no later restart could improve.
    """
    case = canonical_case(case)
    if case == "line_1d":
        raise ValueError("line_1d witnesses come from find_1d, not search")
    cfg = cfg or SearchConfig()
    ambient = 3 * f.domain_dim
    project = _projector(case, f.domain_dim)

    def objective(z):
        xuv = project(z)
        if xuv is None:
            return 1.5
        val = _residual_from_points(case, f, _points(case, *xuv, cfg.delta), cfg.zero_eps)
        return val if math.isfinite(val) else 1.5

    best_val = math.inf
    best_z = None
    executed = 0
    for idx in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, idx])
        z0 = rng.standard_normal(ambient)
        z, val = _nelder_mead(objective, z0, cfg)
        executed += 1
        if val < best_val:
            best_val, best_z = val, z
        if best_val == 0.0:
            break

    xuv = project(best_z)
    if xuv is None:  # pragma: no cover - a degenerate optimum never wins
        raise RuntimeError("search collapsed onto a degenerate configuration")
    config = Configuration(*xuv, cfg.delta)
    pts = _points(case, *xuv, cfg.delta)
    res = _residual_from_points(case, f, pts, cfg.zero_eps)
    return WitnessRecord(
        case=case,
        found=res <= cfg.tol,
        points=list(pts),
        residual=res,
        min_pairwise_distance=_min_pairwise(pts),
        pair_sets_distinct=_pair_sets_distinct(pts),
        config=config,
        map_digest=map_digest(f),
        seed=cfg.seed,
        restarts_used=executed,
    )


# -- verification ---------------------------------------------------------------


def _config_norm_violations(case: str, c: Configuration, tol: float = 1e-9) -> list:
    msgs = []
    nx = float(np.linalg.norm(c.x))
    if abs(nx - 1.0) > tol:
        msgs.append(f"||x|| = {nx!r} is not 1")
    nu = float(np.linalg.norm(c.u))
    nv = float(np.linalg.norm(c.v))
    if case == "parallel_b":
        joint = math.sqrt(nu * nu + nv * nv)
        if abs(joint - 1.0) > tol:
            msgs.append(f"||(u, v)|| = {joint!r} is not 1")
    elif case == "parallel_a":
        for name, n in (("u", nu), ("v", nv)):
            if abs(n - _SQRT_HALF) > tol:
                msgs.append(f"||{name}|| = {n!r} is not 1/sqrt(2)")
    else:
        for name, n in (("u", nu), ("v", nv)):
            if abs(n - 1.0) > tol:
                msgs.append(f"||{name}|| = {n!r} is not 1")
    return msgs


def verify_witness(
    rec: WitnessRecord, f: MapDescriptor, tol: float = 1e-10
) -> WitnessVerification:
    """Re-derive everything checkable about a record from the map itself.

    Recomputes the residual from the stored points (and its agreement with
    the stored value), the config-to-points consistency, the per-case
    distinctness requirements, and the map digest.
    """
    case = canonical_case(rec.case)
    checks: dict[str, bool] = {}
    messages: list[str] = []

    pts = [np.asarray(p, dtype=float) for p in rec.points]
    if len(pts) != 4 or any(p.shape != (f.domain_dim,) for p in pts):
        raise ValueError("record must contain 4 points of the map's domain dimension")

    checks["digest_matches"] = rec.map_digest == map_digest(f)
    if not checks["digest_matches"]:
        messages.append("map digest differs from the supplied map")

    if rec.config is not None:
        viols = _config_norm_violations(case, rec.config)
        checks["config_norms"] = not viols
        messages.extend(viols)
        expected = record_points(case, rec.config)
        dev = max(
            float(np.max(np.abs(np.asarray(e) - p))) for e, p in zip(expected, pts)
        )
        checks["points_match_config"] = dev <= 1e-9
        if dev > 1e-9:
            messages.append(f"points deviate from configuration by {dev!r}")

    residual = _residual_from_points(case, f, pts, zero_eps=1e-13)
    checks["residual_agrees_with_record"] = abs(residual - rec.residual) <= 1e-12
    if not checks["residual_agrees_with_record"]:
        messages.append(
            f"recomputed residual {residual!r} vs recorded {rec.residual!r}"
        )
    checks["residual_within_tol"] = residual <= tol
    if residual > tol:
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


def find_1d(
    f: MapDescriptor,
    interval: tuple[float, float],
    tol: float = 1e-12,
    samples: int = 257,
    zero_eps: float = 1e-13,
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
    if not (a < b):
        raise ValueError("interval must satisfy a < b")
    if samples < 8:
        raise ValueError("need at least 8 samples")

    ts = np.linspace(a, b, samples)
    imgs = eval_map(f, ts[:, None])
    centered = imgs - imgs.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    flat = s[0] <= zero_eps
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
        diffs = imgs[:, None, :] - imgs[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
        i0, i1 = np.unravel_index(int(np.argmax(dist2)), dist2.shape)
        if i0 > i1:
            i0, i1 = i1, i0
        chord = imgs[i1] - imgs[i0]
        e = np.array([-chord[1], chord[0]]) / float(np.linalg.norm(chord))

        def rho(t: float) -> float:
            return float((eval_map(f, np.array([t])) - imgs[i0]) @ e)

        heights = (imgs - imgs[i0]) @ e
        interior = heights[i0 + 1 : i1]
        if interior.size == 0 or float(np.max(np.abs(interior))) <= zero_eps:
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

    residual = _residual_from_points("line_1d", f, pts, zero_eps)
    return WitnessRecord(
        case="line_1d",
        found=residual <= tol,
        points=pts,
        residual=residual,
        min_pairwise_distance=_min_pairwise(pts),
        pair_sets_distinct=_pair_sets_distinct(pts),
        config=None,
        map_digest=map_digest(f),
        seed=0,
        restarts_used=0,
    )


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
    the search manifold), re-minimizes the collinear residual to cfg.tol,
    and counts singular values of the centered displacement matrix above
    ratio_threshold * sigma_1.  The comparison value is the covering bound
    4(m+1) - (n-1) for maps R^(m+1) -> R^(n+1).
    """
    cfg = cfg or SearchConfig()
    if canonical_case(base.case) != "collinear":
        raise ValueError("the base record must be a collinear witness")
    ver = verify_witness(base, f, tol=cfg.tol)
    if not ver.passed:
        raise ValueError(f"base record fails verification: {ver.messages}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    d = f.domain_dim
    p0 = np.concatenate([np.asarray(p, dtype=float) for p in base.points])

    def objective(z):
        val = _residual_from_points("collinear", f, z.reshape(4, d), cfg.zero_eps)
        return val if math.isfinite(val) else 1.5

    # Keep the re-minimization local: the simplex scale follows the noise,
    # otherwise samples drift along the solution set and the displacement
    # directions no longer reflect its dimension at the base point.
    local_cfg = replace(
        cfg,
        step=min(cfg.step, 0.5 * noise_scale),
        polish_rounds=max(cfg.polish_rounds, 3),
    )
    solutions = []
    for i in range(n_samples):
        rng = np.random.default_rng([cfg.seed, i, 1])
        z0 = p0 + noise_scale * rng.standard_normal(p0.size)
        z, val = _nelder_mead(objective, z0, local_cfg)
        if val <= cfg.tol:
            solutions.append(z)

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

    For domain R^(m+1), the parallel cases are guaranteed into codomains of
    dimension at most m + 2^r (with m+1 not a power of two additionally
    required for the separated case), collinearity/linear dependence up to
    one more, and the 1-d construction exactly for maps R -> R^2.
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
    r = r_of(m)
    limit = m + (1 << r) + (1 if case == "linear_dependence" else 0)
    parts = []
    ok = f.codomain_dim <= limit
    parts.append(
        f"codomain dimension {f.codomain_dim} {'<=' if ok else '>'} {limit} "
        f"(m = {m}, r = {r})"
    )
    if case == "parallel_a":
        boundary = (m + 1) == (1 << (r - 1))
        if boundary:
            parts.append("m+1 is a power of two, separated pairs are not forced")
        ok = ok and not boundary
    label = "guaranteed" if ok else "exploratory"
    return ok, f"{label}: " + "; ".join(parts)
