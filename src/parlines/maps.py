"""Polynomial map descriptors R^d -> R^c, with a few named builtins.

A map is a list of coordinate polynomials; each polynomial is a list of
(coefficient, exponent-tuple) terms.  Descriptors are read from JSON in an
explicit ``coords`` form or a ``builtin`` form that names a generator plus
its parameters, and written in the explicit form.  The digest identifying a
map is taken over the explicit form, so both spellings of one map agree.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jsonio import canonical_json, json_typed, sha256_of

__all__ = ["MapDescriptor", "eval_map", "map_digest", "builtin_map", "BUILTIN_NAMES"]

Coords = tuple[tuple[tuple[float, tuple[int, ...]], ...], ...]


@dataclass
class MapDescriptor:
    """A polynomial map, stored per coordinate as (coefficient, exponents).

    Instances are treated as immutable; the compiled numpy arrays used by
    :func:`eval_map` are built once on construction, and the digest of
    :func:`map_digest` on its first use.
    """

    domain_dim: int
    codomain_dim: int
    coords: Coords

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
                if any(not 0 <= e < 2**63 for e in exps):
                    raise ValueError("exponents must lie in 0..2^63-1")
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
        # exponent in use, and variable k's power e is the flat column
        # k*len(powers) + (index of e in powers).  Slot s of a term reads its
        # s-th variable with a nonzero exponent; a term with fewer factors
        # reads column 0, x_0^0 = 1.0, and multiplying by 1.0 changes no bit.
        # A lone term in one variable gets a one-wide table: numpy then sees
        # one exponent for the whole loop, as in the broadcast p ** exps, and
        # squares by x*x instead of pow, a different last bit.
        if exps.shape == (1, 1):
            self._powers = exps[0]
            self._columns = (np.zeros(1, dtype=np.intp),)
        else:
            # np.union1d would import numpy.ma on the first map built.
            self._powers = np.array(sorted({0}.union(*exp_rows)), dtype=np.int64)
            terms, ks = np.nonzero(exps)
            slot = np.arange(terms.size) - np.searchsorted(terms, terms)
            columns = ks * self._powers.size + np.searchsorted(self._powers, exps[terms, ks])
            self._columns = np.zeros((slot.max(initial=0) + 1, len(exps)), dtype=np.intp)
            self._columns[slot, terms] = columns

    def to_json_dict(self) -> dict:
        return {
            "domain_dim": self.domain_dim,
            "codomain_dim": self.codomain_dim,
            "coords": [
                [{"c": c, "e": list(exps)} for c, exps in coord]
                for coord in self.coords
            ],
        }

    @cached_property
    def _digest(self) -> str:
        return sha256_of(canonical_json(self.to_json_dict()))

    @classmethod
    def from_json_dict(cls, data: dict) -> "MapDescriptor":
        """Parse either JSON form.  The builtin form takes its parameters flat,
        as earlier versions wrote them, or nested under ``params``:
        ``{"builtin": "random_poly", "params": {"m": 1, ...}, "seed": 42}``.
        In the coords form, ``domain_dim`` defaults to the length of the
        exponent vectors and ``codomain_dim`` to the number of coordinates.
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
                seed = None if data.get("seed") is None else json_typed(data, "seed", int)
                return builtin_map(data["builtin"], params, seed=seed)
            except TypeError as exc:
                raise ValueError(f"malformed map descriptor: {exc}") from exc
        try:
            coords = tuple(
                tuple((json_typed(term, "c", float), tuple(json_typed(term, "e", list[int])))
                      for term in coord)
                for coord in data["coords"]
            )
            dims = {k: json_typed(data, k, int) for k in ("domain_dim", "codomain_dim")
                    if data.get(k) is not None}
            domain_dim = dims.get("domain_dim")
            if domain_dim is None:
                lengths = sorted({len(exps) for coord in coords for _, exps in coord})
                if len(lengths) != 1:
                    raise ValueError(
                        "malformed map descriptor: domain_dim is not given and the "
                        + ("map has no term" if not lengths else
                           f"exponent vectors have lengths {lengths}")
                    )
                domain_dim = lengths[0]
            return cls(
                domain_dim=domain_dim,
                codomain_dim=dims.get("codomain_dim", len(coords)),
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
    """SHA-256 of the canonical explicit-form JSON of the map, taken once
    per descriptor: a search's note line and its record share one."""
    return f._digest


def _monomial_exponents(d: int, degrees) -> Iterator[tuple[int, ...]]:
    """Exponent tuples over d variables, in (total degree, reverse-lex) order.
    Lazy, so that ``moment`` builds only the n+1 tuples it uses, not all d of
    degree 1, each of length d."""
    for deg in degrees:
        for combo in itertools.combinations_with_replacement(range(d), deg):
            exps = [0] * d
            for i in combo:
                exps[i] += 1
            yield tuple(exps)


def _monomial_map(d: int, exps) -> MapDescriptor:
    """The map over d variables whose coordinates are these monomials."""
    coords = tuple(((1.0, e),) for e in exps)
    return MapDescriptor(d, len(coords), coords)


# A builtin is built term by term in memory: it may hold at most this many
# exponents, its number of terms times its domain dimension.
_MAX_EXPONENTS = 10**6


def builtin_map(name: str, params: dict | None = None, seed: int | None = None) -> MapDescriptor:
    """Construct one of the named example maps.

    * ``affine_graph`` (m): x -> (1, x) from R^(m+1) to R^(m+2); it sends
      parallel domain chords to parallel image chords, so case a and b
      searches find genuine witnesses on it.
    * ``parabola``: t -> (t, t^2), the standard 1-d witness example.
    * ``moment`` (m, n): the first n+1 monomials of degree >= 1 over m+1
      variables, ordered by total degree.
    * ``random_poly`` (m, n, degree, seed): dense polynomial coordinates with
      coefficients drawn uniformly from [-1, 1); deterministic in the seed.

    Parameters are JSON integers, never coerced, and a map may hold at most
    ``_MAX_EXPONENTS`` exponents.
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
        return [json_typed(params, k, int) for k in keys]

    def fits(terms: int, d: int) -> None:
        if terms * d > _MAX_EXPONENTS:
            raise ValueError(
                f"builtin {name!r} with {params} would hold more than "
                f"{_MAX_EXPONENTS} exponents (terms times domain dimension)"
            )

    if name == "affine_graph":
        (m,) = want("m")
        if m < 0:
            raise ValueError("m must be >= 0")
        fits(m + 2, m + 1)
        return _monomial_map(m + 1, _monomial_exponents(m + 1, [0, 1]))

    if name == "parabola":
        want()
        return _monomial_map(1, [(1,), (2,)])

    if name == "moment":
        m, n = want("m", "n")
        if m < 0 or n < 0:
            raise ValueError("m and n must be >= 0")
        d = m + 1
        fits(n + 1, d)
        return _monomial_map(d, itertools.islice(_monomial_exponents(d, itertools.count(1)), n + 1))

    if name == "random_poly":
        m, n, degree = want("m", "n", "degree")
        if m < 0 or n < 0 or degree < 1:
            raise ValueError("need m, n >= 0 and degree >= 1")
        if seed is None:
            raise ValueError("random_poly requires a seed")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        d = m + 1
        # Each coordinate has at least degree + 1 terms; checking that first
        # keeps the binomial below cheap.
        fits((n + 1) * (degree + 1), d)
        fits((n + 1) * math.comb(d + degree, degree), d)
        exps = list(_monomial_exponents(d, range(0, degree + 1)))
        rng = np.random.default_rng(seed)
        coords = tuple(
            tuple((float(c), e) for c, e in zip(rng.uniform(-1.0, 1.0, len(exps)), exps))
            for _ in range(n + 1)
        )
        return MapDescriptor(d, n + 1, coords)

    raise ValueError(f"unknown builtin map {name!r}")


BUILTIN_NAMES = ("affine_graph", "parabola", "moment", "random_poly")
