"""Shared helpers: independent small-scale oracles for the GF(2) series,
ring elements named by exponent tuples, the reference formula for map
evaluation, and a linear map with an exact collinear record on it.

The series expansions here deliberately avoid the package's own ring
engine and its bitwise binomial shortcut, computing binomials from a Pascal
triangle instead, so engine and oracle can only agree by being right.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from parlines.maps import MapDescriptor, eval_map, map_digest
from parlines.witness import Configuration, collinear_residual, record_points

# One line per acceptance criterion, replayed after the run summary so they
# stay visible under pytest's output capture.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@lru_cache(maxsize=None)
def pascal_mod2(rows: int) -> tuple:
    """Pascal's triangle mod 2: table[n][k] = C(n, k) % 2 for n, k < rows."""
    table = [[0] * rows for _ in range(rows)]
    for n in range(rows):
        table[n][0] = 1
        for k in range(1, n + 1):
            table[n][k] = (table[n - 1][k - 1] + table[n - 1][k]) % 2
    return tuple(tuple(r) for r in table)


def binom2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return pascal_mod2(max(n + 1, 8))[n][k]


def series_inv_t(m: int, n: int) -> int:
    """Coefficient of t^n in (1+t)^-1 over GF(2)[t]/(t^(m+1)): 1 iff n <= m."""
    return 1 if 0 <= n <= m else 0


def series_inv_ty(m: int, shift: int) -> set:
    """Support over the t,y square of the two inverse-class expansions.

    The coefficient of t^i y^j comes from direct expansion: in
    (1+t+y)^-1 = sum_k (t+y)^k only the k = i+j term contributes, giving
    C(i+j, i); multiplying by (1+t)^-1 sums that over smaller i, and the
    hockey-stick identity collapses the partial sum to C(i+j+1, i).  So
    the coefficient is C(i + j + shift - 1, i) with shift=1 for
    (1+t+y)^-1 alone and shift=2 for (1+t)^-1 (1+t+y)^-1.  Returns the
    set of (i, j) pairs, 0 <= i, j <= m, where that binomial is odd.
    """
    out = set()
    for j in range(m + 1):
        for i in range(m + 1):
            if binom2(i + j + shift - 1, i):
                out.add((i, j))
    return out


def element(ring, *exps):
    """The GF(2) sum of the monomials with these exponent tuples, aligned
    with ``ring.gen_names`` (duplicates cancel).  An exponent tuple need not
    be in normal form: each monomial is the product of its generators'
    powers."""
    gens = ring.gens()
    total = ring.zero()
    for e in exps:
        term = ring.one()
        for g, k in zip(gens, e, strict=True):
            term = term * g ** k
        total = total + term
    return total


def basis(ring) -> list:
    """The normal-form exponent tuples of a ring, in lexicographic order."""
    return list(itertools.product(*(range(c + 1) for c in ring._caps)))


def reference_eval_map(f, points):
    """A map evaluated by the plain broadcast formula, built from
    ``f.coords`` alone: coeffs * prod(p ** exps) per term, then summed per
    coordinate.  ``eval_map`` must agree with it bit for bit."""
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    if single:
        p = p[None, :]
    coeffs, exps, starts = [], [], []
    for coord in f.coords:
        starts.append(len(exps))
        for c, e in coord or ((0.0, (0,) * f.domain_dim),):
            coeffs.append(c)
            exps.append(e)
    exps = np.array(exps, dtype=np.int64)
    terms = np.array(coeffs) * np.prod(p[:, None, :] ** exps[None, :, :], axis=2)
    out = np.add.reduceat(terms, np.array(starts, dtype=np.intp), axis=1)
    return out[0] if single else out


def linear_r2_r3() -> MapDescriptor:
    """(x, y) -> (x, y, x + y): injective linear, so it maps lines to lines."""
    return MapDescriptor(
        2, 3,
        (((1.0, (1, 0)),), ((1.0, (0, 1)),), ((1.0, (1, 0)), (1.0, (0, 1)))),
    )


def exact_collinear_record_dict(f: MapDescriptor) -> dict:
    """A found collinear record on a linear map, as JSON: x, u, v all along
    e1 put the four sampled points on one domain line, and a linear map
    keeps their images on a line."""
    e1 = np.array([1.0, 0.0])
    config = Configuration(x=e1, u=e1, v=e1, delta=0.25)
    pts = record_points("collinear", config)
    residual = collinear_residual(*eval_map(f, np.stack(pts)))
    return {
        "case": "collinear",
        "found": True,
        "points": [[float(a) for a in p] for p in pts],
        "residual": residual,
        "min_pairwise_distance": 0.5,
        "pair_sets_distinct": True,
        "config": config.to_json_dict(),
        "map_digest": map_digest(f),
        "seed": 0,
        "restarts_used": 0,
    }
