"""Polynomial map descriptors R^d -> R^c, with a few named builtins.

A map is a list of coordinate polynomials; each polynomial is a list of
(coefficient, exponent-tuple) terms.  Descriptors round-trip through JSON in
two forms: an explicit ``coords`` form and a compact ``builtin`` form that
names a generator plus its parameters.  The digest identifying a map is
taken over the explicit form, so both spellings of the same map agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .jsonio import canonical_json, sha256_of

__all__ = ["MapDescriptor", "eval_map", "map_digest", "builtin_map", "BUILTIN_NAMES"]

Coords = tuple[tuple[tuple[float, tuple[int, ...]], ...], ...]


@dataclass
class MapDescriptor:
    """A polynomial map, stored per coordinate as (coefficient, exponents).

    Instances are treated as immutable; the compiled numpy arrays used by
    :func:`eval_map` are built once on construction.
    """

    domain_dim: int
    codomain_dim: int
    coords: Coords
    builtin: dict | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.domain_dim < 1 or self.codomain_dim < 1:
            raise ValueError("dimensions must be >= 1")
        coords = tuple(tuple((float(c), tuple(int(e) for e in exps)) for c, exps in coord)
                       for coord in self.coords)
        if len(coords) != self.codomain_dim:
            raise ValueError("coords length must equal codomain_dim")
        for coord in coords:
            for c, exps in coord:
                if len(exps) != self.domain_dim:
                    raise ValueError("exponent tuple length must equal domain_dim")
                if any(e < 0 for e in exps):
                    raise ValueError("exponents must be >= 0")
                if not np.isfinite(c):
                    raise ValueError("coefficients must be finite")
        self.coords = coords
        # Compiled form: one row per term, grouped by coordinate; empty
        # coordinates get a sentinel zero term so reduceat stays aligned.
        exp_rows: list[tuple[int, ...]] = []
        coeffs: list[float] = []
        starts: list[int] = []
        for coord in coords:
            starts.append(len(exp_rows))
            terms = coord if coord else (((0.0, (0,) * self.domain_dim)),)
            for c, exps in terms:
                exp_rows.append(exps)
                coeffs.append(c)
        exps = np.array(exp_rows, dtype=np.int64)
        self._coeffs = np.array(coeffs, dtype=float)
        self._starts = np.array(starts, dtype=np.intp)
        # Power table: eval_map raises every coordinate to each distinct
        # exponent in use, and term t reads variable k's power from the flat
        # column k*len(powers) + (index of exps[t, k] in powers).  A lone
        # term in one variable gets a one-wide table: numpy then sees one
        # exponent for the whole loop, as in the broadcast p ** exps, and
        # squares by x*x instead of pow, a different last bit.
        if exps.shape == (1, 1):
            self._powers = exps[0]
            self._columns = (np.zeros(1, dtype=np.intp),)
        else:
            self._powers = np.union1d(0, exps)
            self._columns = tuple(
                k * self._powers.size + np.searchsorted(self._powers, exps[:, k])
                for k in range(self.domain_dim)
            )

    def to_json_dict(self) -> dict:
        if self.builtin is not None:
            return dict(self.builtin)
        return self._coords_json_dict()

    def _coords_json_dict(self) -> dict:
        return {
            "domain_dim": self.domain_dim,
            "codomain_dim": self.codomain_dim,
            "coords": [
                [{"c": c, "e": list(exps)} for c, exps in coord]
                for coord in self.coords
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MapDescriptor":
        """Parse either JSON form.  The builtin form takes its parameters flat,
        as :meth:`to_json_dict` writes them, or nested under ``params``:
        ``{"builtin": "random_poly", "params": {"m": 1, ...}, "seed": 42}``.
        """
        if not isinstance(data, dict):
            raise ValueError("malformed map descriptor: expected a JSON object")
        if "builtin" in data:
            params = {
                k: v for k, v in data.items() if k not in ("builtin", "seed", "params")
            }
            nested = data.get("params", {})
            if not isinstance(nested, dict):
                raise ValueError("malformed map descriptor: params must be a JSON object")
            clash = sorted(set(params) & set(nested))
            if clash:
                raise ValueError(
                    f"malformed map descriptor: {clash} given both flat and under params"
                )
            params.update(nested)
            try:
                return builtin_map(data["builtin"], params, seed=data.get("seed"))
            except TypeError as exc:
                raise ValueError(f"malformed map descriptor: {exc}") from exc
        try:
            coords = tuple(
                tuple((term["c"], tuple(term["e"])) for term in coord)
                for coord in data["coords"]
            )
            return cls(
                domain_dim=data["domain_dim"],
                codomain_dim=data["codomain_dim"],
                coords=coords,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed map descriptor: {exc}") from exc


def eval_map(f: MapDescriptor, points) -> np.ndarray:
    """Evaluate at a point of shape (d,) or a batch of shape (N, d)."""
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    if single:
        p = p[None, :]
    if p.ndim != 2 or p.shape[1] != f.domain_dim:
        raise ValueError(
            f"expected points of dimension {f.domain_dim}, got shape {p.shape}"
        )
    # numpy's power ufunc makes the same pow calls as the broadcast
    # p[:, None, :] ** exps, and the product runs left to right like np.prod,
    # so the values agree bit for bit with that formula.
    table = (p[:, :, None] ** f._powers).reshape(len(p), f._powers.size * f.domain_dim)
    columns = f._columns
    prod = table.take(columns[0], axis=1)
    for col in columns[1:]:
        prod *= table.take(col, axis=1)
    out = np.add.reduceat(f._coeffs * prod, f._starts, axis=1)
    return out[0] if single else out


def map_digest(f: MapDescriptor) -> str:
    """SHA-256 of the canonical explicit-form JSON of the map."""
    return sha256_of(canonical_json(f._coords_json_dict()))


def _monomial_exponents(d: int, degrees) -> list[tuple[int, ...]]:
    """Exponent tuples over d variables, in (total degree, reverse-lex) order."""
    out = []
    for deg in degrees:
        for combo in itertools.combinations_with_replacement(range(d), deg):
            exps = [0] * d
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return out


def _build_affine_graph(m: int) -> Coords:
    d = m + 1
    rows = [(((1.0, (0,) * d)),)]
    for i in range(d):
        exps = tuple(1 if j == i else 0 for j in range(d))
        rows.append(((1.0, exps),))
    return tuple(rows)


def builtin_map(name: str, params: dict | None = None, seed: int | None = None) -> MapDescriptor:
    """Construct one of the named example maps.

    * ``affine_graph`` (m): x -> (1, x) from R^(m+1) to R^(m+2); every
      difference of distinct values is non-parallel to every other, so
      parallel-pair searches on it can only close at coincident points.
    * ``parabola``: t -> (t, t^2), the standard 1-d witness example.
    * ``moment`` (m, n): the first n+1 monomials of degree >= 1 over m+1
      variables, ordered by total degree.
    * ``random_poly`` (m, n, degree, seed): dense polynomial coordinates with
      coefficients drawn uniformly from [-1, 1); deterministic in the seed.
    """
    params = dict(params or {})

    def want(*keys: str) -> list[int]:
        missing = [k for k in keys if k not in params]
        extra = sorted(set(params) - set(keys))
        if missing or extra:
            raise ValueError(
                f"builtin {name!r} takes parameters {list(keys)}; "
                f"missing {missing}, unexpected {extra}"
            )
        return [int(params[k]) for k in keys]

    if name == "affine_graph":
        (m,) = want("m")
        if m < 0:
            raise ValueError("m must be >= 0")
        coords = _build_affine_graph(m)
        return MapDescriptor(m + 1, m + 2, coords, builtin={"builtin": name, "m": m})

    if name == "parabola":
        want()
        coords = (((1.0, (1,)),), ((1.0, (2,)),))
        return MapDescriptor(1, 2, coords, builtin={"builtin": name})

    if name == "moment":
        m, n = want("m", "n")
        if m < 0 or n < 0:
            raise ValueError("m and n must be >= 0")
        d = m + 1
        gen = (
            e
            for deg in itertools.count(1)
            for e in _monomial_exponents(d, [deg])
        )
        coords = tuple(((1.0, next(gen)),) for _ in range(n + 1))
        return MapDescriptor(d, n + 1, coords, builtin={"builtin": name, "m": m, "n": n})

    if name == "random_poly":
        m, n, degree = want("m", "n", "degree")
        if m < 0 or n < 0 or degree < 1:
            raise ValueError("need m, n >= 0 and degree >= 1")
        if seed is None:
            raise ValueError("random_poly requires a seed")
        d = m + 1
        exps = _monomial_exponents(d, range(0, degree + 1))
        rng = np.random.default_rng(seed)
        coords = tuple(
            tuple((float(c), e) for c, e in zip(rng.uniform(-1.0, 1.0, len(exps)), exps))
            for _ in range(n + 1)
        )
        return MapDescriptor(
            d, n + 1, coords,
            builtin={"builtin": name, "m": m, "n": n, "degree": degree, "seed": seed},
        )

    raise ValueError(f"unknown builtin map {name!r}")


BUILTIN_NAMES = ("affine_graph", "parabola", "moment", "random_poly")
