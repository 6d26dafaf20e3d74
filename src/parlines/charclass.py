"""Mod-2 characteristic class computations and non-vanishing checks.

Total Stiefel-Whitney classes live in the presented rings of
:mod:`parlines.f2ring`.  The checkers compute inverse classes as terminating
geometric series and test non-vanishing of specific graded parts; each check
returns a :class:`VerificationReport` that records the dimension parameters,
the key monomial whose coefficient carries the statement, and the witness
monomials found.  The reports feed both the test suite and the command line.

The series behind the theorem, corollary and sharpness checks are read
from closed forms instead of the generic ring engine.  The four t,y,x
series are made of u_j = (1+t)^-(j+1), whose t^i coefficient is
C(i+j, j) mod 2; by Lucas' theorem that is 1 exactly when i & j == 0, so a
coefficient is one AND of exponents and no series is built.  The sharpness
series (1+t0)^-1 (1+s)^-1 has every t0^a s^b with a < 2^q and b <= 2m+1,
so its key and top degree are arithmetic in m.  The generic ring engine
remains the route of the prelude and the oracles, and the reference the
tests hold the closed forms to, beside the Pascal triangle mod 2.  One
builder, ``_report``, makes every report and names its monomials straight
from exponent tuples, so no check but the prelude builds a ring.

The two ``oracle_*`` functions re-derive direct-image (Umkehr) formulas used
by the checks from brute-force expansions in explicit product rings, so that
the series route and the coefficient route stay independent.  They call the
ring engine directly: ``invert`` for inverse classes and
``RingPresentation.base_coefficient`` for a direct image, the coefficient
of the fibre generator's top power.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .f2ring import (
    RingElement,
    RingError,
    RingPresentation,
    invert,
    monomial_name,
    ring_adjoin_x,
    ring_proj_bundle,
    ring_projective,
    ring_truncated,
)
# Unused here: clibench's tracer wraps ring builders by their name in this module.
from .f2ring import ring_y0, ring_yhat  # noqa: F401

__all__ = [
    "DimensionParams",
    "euler_line_tensor_quotient",
    "VerificationReport",
    "check_prelude",
    "check_theorem_b",
    "check_theorem_a",
    "check_theorem_a_v2",
    "check_corollary",
    "check_prop_q",
    "prop_q_max_degree",
    "LINE_SPECS",
    "oracle_umkehr_product",
    "oracle_umkehr_dual",
    "all_checks",
    "expected_outcome",
]


@dataclass(frozen=True)
class DimensionParams:
    """The dimension parameters of a domain dimension m >= 0, all read from
    m: r with 2^(r-1) <= m+1 < 2^r; q, the 2-adic valuation of m+1;
    ``n = m + 2^r - 1``, so that maps to R^(n+1) are the largest case the
    non-vanishing arguments cover; and ``boundary``, m+1 = 2^(r-1), where
    separated pairs are not forced, only x0 != x1, y0 != y1 and
    {x0,x1} != {y0,y1}.
    """

    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("m must be >= 0")

    @property
    def r(self) -> int:
        return (self.m + 1).bit_length()

    @property
    def q(self) -> int:
        v = self.m + 1
        return (v & -v).bit_length() - 1

    @property
    def n(self) -> int:
        return self.m + (1 << self.r) - 1

    @property
    def boundary(self) -> bool:
        return self.m + 1 == 1 << (self.r - 1)


def euler_line_tensor_quotient(
    e_line: RingElement, n: int, ring_x: RingPresentation
) -> RingElement:
    """Mod-2 Euler class of (line bundle) ⊗ (trivial^(n+1) / tautological).

    ``ring_x`` extends its base by one generator ``x``, truncated as
    ``ring_adjoin_x`` makes it, not bound by a square relation.
    ``e_line``, the Euler class of the line bundle, is an element of that
    base, homogeneous of degree 1 (``RingError`` otherwise).  The Euler
    class of the rank-n tensor is sum_j e^j x^(n-j).  The powers e^j are
    taken in the base, each once per line class: its list in
    ``_line_powers`` is extended up to e^n or the first zero power, never
    further.  ``from_base_coefficients`` sets them at x^(n-j), so the ring
    with x does no multiply.
    """
    if ring_x.base is None or ring_x.gen_names[-1] != "x":
        raise RingError("ring_x must extend its base by the generator x")
    if ring_x.square is not None:
        raise RingError("ring_x must truncate x, not bind it by a square relation")
    if e_line.ring is not ring_x.base:
        raise RingError("e_line must live in the base of ring_x")
    if n < 0:
        raise ValueError("n must be >= 0")
    if e_line != e_line.homogeneous_part(1):
        raise RingError("e_line must be homogeneous of degree 1")
    powers = _line_powers(e_line)
    while len(powers) <= n and powers[-1]:
        powers.append(powers[-1] * e_line)
    return ring_x.from_base_coefficients(
        {n - j: power for j, power in enumerate(powers[: n + 1])}
    )


# A grid column asks for its four line classes at n = 1, 2, ..., so 16
# entries serve the columns ``_product_base`` keeps.  A key holds its ring,
# so no other ring can take that ring's id while the entry lives.
@lru_cache(maxsize=16)
def _line_powers(e_line: RingElement) -> list[RingElement]:
    """[1, e, e^2, ...]: the list ``euler_line_tensor_quotient`` grows in
    place as its n grows, so that each power is taken once."""
    return [e_line.ring.one(), e_line]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one symbolic non-vanishing check."""

    check: str
    m: int
    r: int
    q: int
    n: int
    key_monomial: str
    key_coefficient: int
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "q": self.q,
            "n": self.n,
            "check": self.check,
            "key_monomial": self.key_monomial,
            "coefficient": self.key_coefficient,
            "passed": self.passed,
            "detail": self.detail,
        }


def _report(
    check: str, m: int, n: int, names: tuple[str, ...], key: tuple[int, ...] | None,
    coeff: int, passed: bool, detail: str,
) -> VerificationReport:
    """The report of one check at m; ``key`` holds the key monomial's
    exponents, aligned with ``names``, or None where there is no key."""
    p = DimensionParams(m)
    return VerificationReport(
        check=check,
        m=m,
        r=p.r,
        q=p.q,
        n=n,
        key_monomial="" if key is None else monomial_name(names, key),
        key_coefficient=coeff,
        passed=passed,
        detail=detail,
    )


def _witnesses(names: tuple[str, ...], part: list, limit: int = 6) -> str:
    """The first ``limit`` exponent tuples of a graded part, printed."""
    if not part:
        return "none"
    monos = [monomial_name(names, exps) for exps in part[:limit]]
    if len(part) > limit:
        monos.append(f"... ({len(part)} total)")
    return ", ".join(monos)


# A series in closed form, as (row, shift, x_exp): the element
# t^shift (sum_j u_(j+row) y^j) (1+x)^x_exp, in the generators _TYX.
_TYX = ("t", "y", "x")
_INV_TY = (0, 0, 0)
_W = (1, 0, 0)
_S = (1, 0, 1)
_T_S = (1, 1, 1)


def _part(m: int, series: tuple[int, int, int], d: int) -> list[tuple[int, int, int]]:
    """The exponents (i, j, e) of ``series`` present in degree
    d = i + 2j + e, in increasing order, which within one degree is the
    (degree, exponents) order ``str`` prints elements in; t^i is in u_j
    exactly when i & j == 0."""
    row, shift, x_exp = series
    out = []
    for i in range(max(shift, d - 2 * m - 1), min(m, d) + 1):
        k = d - i  # = 2j + e
        if k & 1 <= x_exp and not (i - shift) & ((k >> 1) + row):
            out.append((i, k >> 1, k & 1))
    return out


def check_prelude(m: int, n: int) -> VerificationReport:
    """Non-vanishing of the degree-n part of (1+t)^-1 over GF(2)[t]/(t^(m+1)).

    The inverse class is sum_i t^i, so the part is nonzero exactly when
    n <= m; this is the 1-line sanity check for the series machinery.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    ring = ring_projective(m)
    w = invert(ring.one() + ring.gen("t"))
    part = sorted(w.homogeneous_part(n).terms)
    return _report(
        "prelude", m, n, ("t",), (n,), int((n,) in part), bool(part),
        f"expected nonzero iff n <= m (here {n <= m}); witnesses: {_witnesses(('t',), part)}",
    )


def _series_report(
    check: str, m: int, series: tuple[int, int, int], t_offset: int
) -> VerificationReport:
    """The report of one series check, which passes when the key
    t^(n-2m-1+t_offset) y^m x^x_exp of ``series`` has coefficient 1 and the
    part in the key's own degree, n-1+t_offset+x_exp, is nonzero (as the
    key alone already makes it)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = DimensionParams(m).n
    x_exp = series[2]
    key = (n - 2 * m - 1 + t_offset, m, x_exp)
    degree = n - 1 + t_offset + x_exp
    part = _part(m, series, degree)
    coeff = int(key in part)
    return _report(
        check, m, n, _TYX, key, coeff, coeff == 1,
        f"witnesses in degree {degree}: {_witnesses(_TYX, part)}",
    )


def check_theorem_b(m: int) -> VerificationReport:
    """Degree-n non-vanishing of S = (1+t)^-1 (1+t+y)^-1 (1+x), n = m+2^r-1.

    The key monomial t^(n-2m-1) y^m x always has coefficient 1 (its exponent
    lies in [0, m] for every m >= 1), which forces a dimension-(3m+1) pair of
    parallel chords for maps R^(m+1) -> R^(n+1) with antipodal-mixed pairs.
    """
    return _series_report("theorem_b", m, _S, t_offset=0)


def check_theorem_a(m: int) -> VerificationReport:
    """Non-vanishing of t * S in degree n+1 (the separated-pairs refinement).

    Passes exactly when m+1 is not a power of two (equivalently
    m+1 != 2^(r-1)); at the boundary the class t*S vanishes in that degree
    and the report carries a not-applicable note.
    """
    rep = _series_report("theorem_a", m, _T_S, t_offset=1)
    boundary = DimensionParams(m).boundary
    note = "; not applicable: m+1 = 2^(r-1)" if boundary else ""
    return replace(
        rep,
        detail=f"expected iff m+1 != 2^(r-1) (here {not boundary}); {rep.detail}{note}",
    )


def check_theorem_a_v2(m: int) -> VerificationReport:
    """Second route to the separated-pairs case, in the same t,y,x ring:
    the coefficient of t^(n-2m) y^m in (1+t+y)^-1 is 1.

    Only defined off the boundary; raises ValueError when m+1 = 2^(r-1)
    (there the exponent leaves the basis range and the statement is empty).
    """
    if m >= 1 and DimensionParams(m).boundary:  # m < 1 fails in _series_report
        raise ValueError("not applicable: m+1 = 2^(r-1)")
    return _series_report("theorem_a_v2", m, _INV_TY, t_offset=1)


def check_corollary(m: int) -> VerificationReport:
    """Coefficient of t^(n-2m-1) y^m in (1+t)^-1 (1+t+y)^-1 equals 1.

    This is the degree-(n-1) non-vanishing that forces four distinct points
    with collinear images for maps R^(m+1) -> R^n, n = m + 2^r - 1.
    """
    return _series_report("corollary", m, _W, t_offset=0)


def check_prop_q(m: int, n: int) -> VerificationReport:
    """Sharpness bound: w = (1+t0)^-1 (1+t0+x0)^-1 in the q-reduced ring
    (t0^(2^q) = 0, (t0+x0)^(2m+2) = 0) is nonzero exactly up to degree
    2m + 2^q.

    With s = t0 + x0, w = (1+t0)^-1 (1+s)^-1, whose support is every
    t0^a s^b with a < 2^q and b <= 2m+1.  The key in degree n is the term
    of least a, a = max(0, n-2m-1), and it is present exactly when
    a < 2^q; ``passed`` is that non-vanishing.  The Hurwitz-Radon
    comparison (alpha <= q) is included in the detail.
    """
    if m < 1 or n < 0:
        raise ValueError("m must be >= 1 and n >= 0")
    q = DimensionParams(m).q
    bound = _prop_q_bound(m)
    a = max(0, n - 2 * m - 1)
    key = (a, n - a) if a < 1 << q else None
    alpha = _alpha(q)
    return _report(
        "prop_q", m, n, ("t0", "s"), key, int(key is not None), key is not None,
        f"nonzero iff n <= 2m+2^q = {bound}; max nonzero degree {bound}; "
        f"alpha = {alpha} <= q = {q}: exponent bound 2^alpha-1 = "
        f"{(1 << alpha) - 1} vs sharp 2^q-1 = {(1 << q) - 1}",
    )


def prop_q_max_degree(m: int) -> int:
    """The top nonzero degree of the q-reduced inverse class, 2m + 2^q:
    the degree of its term t0^(2^q-1) s^(2m+1) (see ``check_prop_q``)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _prop_q_bound(m)


def _prop_q_bound(m: int) -> int:
    """The sharpness bound 2m + 2^q.  The checks call this, not
    ``prop_q_max_degree``, because clibench's tracer times that name as
    ``table``'s recomputation."""
    return 2 * m + (1 << DimensionParams(m).q)


def _alpha(q: int) -> int:
    """The Hurwitz-Radon exponent of the sharpness remark at 2-adic
    valuation q of m+1: the least alpha with 2^alpha >= rho(m+1), where
    rho(m+1) = 8a + 2^b for q = 4a + b depends on q alone (Adams, Vector
    fields on spheres, 1962).  alpha <= q always."""
    a, b = divmod(q, 4)
    return (8 * a + (1 << b) - 1).bit_length()


# The four line classes in the span of t1, t2 over a product of two
# projective spaces, and all 16 ways of assigning two of them.
_LINE_BITS = ((0, 0), (1, 0), (0, 1), (1, 1))
_Spec = tuple[tuple[int, int], tuple[int, int]]
LINE_SPECS: tuple[_Spec, ...] = tuple((a, b) for a in _LINE_BITS for b in _LINE_BITS)
_SPECS = frozenset(LINE_SPECS)


def _line_class(ring: RingPresentation, bits: tuple[int, int]) -> RingElement:
    el = ring.zero()
    if bits[0]:
        el = el + ring.gen("t1")
    if bits[1]:
        el = el + ring.gen("t2")
    return el


# One column (m1, m2) of a grid serves every n, and a sweep visits columns
# one after another.
@lru_cache(maxsize=4)
def _product_base(m1: int, m2: int) -> tuple[RingPresentation, dict[_Spec, RingElement]]:
    """The base P^m1 x P^m2 and, for each line spec, the inverse class of
    the rank-2 sum of its two lines over that base, built as
    (1+l1)^-1 (1+l2)^-1 from the four line classes' inverses."""
    base = ring_truncated(
        f"P{m1}xP{m2}", [("t1", 1, m1 + 1), ("t2", 1, m2 + 1)]
    )
    one = base.one()
    line_inverses = {bits: invert(one + _line_class(base, bits)) for bits in _LINE_BITS}
    inverses = {
        spec: line_inverses[spec[0]] * line_inverses[spec[1]] for spec in LINE_SPECS
    }
    return base, inverses


@lru_cache(maxsize=4)
def _product_rings(m1: int, m2: int, n: int) -> tuple[
    RingPresentation, dict[tuple[int, int], RingElement], dict[_Spec, RingElement]
]:
    """The base P^m1 x P^m2, the Euler class of each line class over it
    with a P^n fibre, and the column's inverse classes.

    The inverse classes come in the same entry as the Euler classes, so
    the two sides of a comparison always live over one base object, even
    after the column's own entry was evicted and rebuilt.  The line
    classes are elements of that base, so their powers, taken once per
    column and extended as n grows, are too.  Every cache is bounded, so
    a sweep over any grid holds at most a few grid points' rings.
    """
    base, inverses = _product_base(m1, m2)
    ring_x = ring_adjoin_x(base, n)
    eulers = {
        bits: euler_line_tensor_quotient(_line_class(base, bits), n, ring_x)
        for bits in _LINE_BITS
    }
    return base, eulers, inverses


def oracle_umkehr_product(m1: int, m2: int, n: int, line_spec: _Spec) -> bool:
    """Brute-force check of the direct-image product formula.

    Over a base with two truncated degree-1 classes t1, t2 and a trivial
    P^n fibre, the direct image of the product of the two rank-n Euler
    classes must equal the degree-n part of the inverse class of the rank-2
    sum of the two lines.  Returns True iff both routes agree exactly.
    The base ring, the four line inverses and the 16 inverse classes made
    from them, and the line classes' powers are shared per column
    (m1, m2); the ring with x and the four line Euler classes per grid
    point (m1, m2, n).  Each call still forms its own product e1*e2, takes
    its direct image, the coefficient of x^n read by ``base_coefficient``,
    and compares it with the degree-n part of its spec's inverse class.
    ``line_spec`` is two 0/1 pairs, as tuples or lists.
    """
    if m1 < 0 or m2 < 0 or n < 1:
        raise ValueError("need m1, m2 >= 0 and n >= 1")
    try:
        spec = tuple(map(tuple, line_spec))
        valid = spec in _SPECS
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"line_spec needs two 0/1 pairs, got {line_spec!r}")
    _, eulers, inverses = _product_rings(m1, m2, n)
    e1, e2 = eulers[spec[0]], eulers[spec[1]]
    return e1.ring.base_coefficient(e1 * e2, n) == inverses[spec].homogeneous_part(n)


@lru_cache(maxsize=4)
def _dual_rings(k: int) -> tuple[RingPresentation, RingElement, RingElement]:
    """The projective bundle base[t] over W_k = GF(2)[w1, w2]/(w1^k, w2^k),
    with w2 and wbar = (1+w1+w2)^-1 in W_k; shared by every n."""
    base = ring_truncated(f"W{k}", [("w1", 1, k), ("w2", 2, k)])
    w1, w2 = base.gens()
    return ring_proj_bundle(base, w1, w2), w2, invert(base.one() + w1 + w2)


def oracle_umkehr_dual(k: int, n: int) -> bool:
    """Brute-force check of the projective-bundle power identity.

    In base[t] with t^2 = w1 t + w2 over the free truncated ring on w1, w2
    (both truncated at power k), expand t^(n+1) and compare both graded
    pieces against the inverse class of 1 + w1 + w2:

        t^(n+1) = wbar_n * t + w2 * wbar_(n-1),  wbar = (1+w1+w2)^-1.

    The rings and wbar are shared per k; each call expands its own t^(n+1)
    and reads its coefficients of t and of 1 by ``base_coefficient``.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    ring_t, w2, wbar = _dual_rings(k)
    tn1 = ring_t.gen("t") ** (n + 1)
    c1 = ring_t.base_coefficient(tn1, 1)
    c0 = ring_t.base_coefficient(tn1, 0)
    return c1 == wbar.homogeneous_part(n) and c0 == w2 * wbar.homogeneous_part(n - 1)


def all_checks(m: int) -> list[VerificationReport]:
    """The six standard reports for one m: prelude at n = m, both theorem
    routes, the corollary, and the sharpness bound at its top degree."""
    p = DimensionParams(m)
    reports = [check_prelude(m, m), check_theorem_b(m), check_theorem_a(m)]
    if p.boundary:
        reports.append(
            _report("theorem_a_v2", m, p.n, _TYX, None, 0, False, "not applicable: m+1 = 2^(r-1)")
        )
    else:
        reports.append(check_theorem_a_v2(m))
    reports.append(check_corollary(m))
    reports.append(check_prop_q(m, _prop_q_bound(m)))
    return reports


def expected_outcome(check: str, m: int) -> bool:
    """Whether a standard check is expected to pass at this m."""
    if check in ("theorem_a", "theorem_a_v2"):
        return not DimensionParams(m).boundary
    return True
