"""Mod-2 characteristic class computations and non-vanishing checks.

Total Stiefel-Whitney classes live in the presented rings of
:mod:`parlines.f2ring`.  The checkers compute inverse classes as terminating
geometric series and test non-vanishing of specific graded parts; each check
returns a :class:`VerificationReport` that records the dimension parameters,
the key monomial whose coefficient carries the statement, and the witness
monomials found.  The reports feed both the test suite and the command line.

The series behind the theorem, corollary and sharpness checks are read
from bit-packed rows instead of the generic set engine: one Python int per
row, bit ``i`` standing for ``t^i``, so that ``(1+t)^-1`` is a prefix XOR
and a coefficient is one bit test.  The four t,y,x checks share one table
per r, the rows ``(1+t)^-(j+1)`` truncated at ``t^(2^r)``, which every m
with that r reads below ``t^(m+1)``; the table is cross-checked once, by
multiplying it back.  The set engine remains the route of the prelude and
the oracles, and the reference the tests hold the table to, beside the
Pascal triangle mod 2.

The two ``oracle_*`` functions re-derive direct-image (Umkehr) formulas used
by the checks from brute-force expansions in explicit product rings, so that
the series route and the coefficient route stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .f2ring import (
    Monomial,
    RingElement,
    RingError,
    RingPresentation,
    invert,
    ring_adjoin_x,
    ring_proj_bundle,
    ring_projective,
    ring_truncated,
    ring_y0,
    ring_yhat,
)

__all__ = [
    "DimensionParams",
    "BundleClass",
    "w_minus",
    "euler_line_tensor_quotient",
    "umkehr_px",
    "umkehr_proj_bundle",
    "VerificationReport",
    "check_prelude",
    "check_theorem_b",
    "check_theorem_a",
    "check_theorem_a_v2",
    "check_corollary",
    "check_prop_q",
    "prop_q_max_degree",
    "hurwitz_radon",
    "alpha_of",
    "hurwitz_comparison",
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


@dataclass(frozen=True)
class BundleClass:
    """A vector bundle recorded by its rank and total Stiefel-Whitney class."""

    rank: int
    total_sw: RingElement

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        if self.total_sw.constant_term() != 1:
            raise RingError("a total Stiefel-Whitney class has constant term 1")
        if self.total_sw.max_nonzero_degree() > self.rank:
            raise RingError("Stiefel-Whitney classes above the rank must vanish")


def w_minus(b: BundleClass) -> RingElement:
    """Total Stiefel-Whitney class of the negative of ``b`` (the inverse class)."""
    return invert(b.total_sw)


def euler_line_tensor_quotient(
    e_line: RingElement, n: int, ring_x: RingPresentation
) -> RingElement:
    """Mod-2 Euler class of (line bundle) ⊗ (trivial^(n+1) / tautological).

    ``e_line`` is the degree-1 Euler class of the line bundle, given already
    in ``ring_x`` (a ring with the extra projective generator ``x`` truncated
    at x^(n+1)).  The Euler class of the rank-n tensor is sum_j e^j x^(n-j).
    """
    if e_line.ring is not ring_x:
        raise RingError("e_line must live in ring_x")
    if "x" not in ring_x.gen_names:
        raise RingError("ring_x must contain the projective generator x")
    if e_line and e_line != e_line.homogeneous_part(1):
        raise RingError("e_line must be homogeneous of degree 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    # Horner in x: after k steps total = sum_(j<=k) e^j x^(k-j).
    x = ring_x.gen("x")
    total = epow = ring_x.one()
    for _ in range(n):
        epow = epow * e_line
        total = total * x + epow
    return total


def _gen_power_coefficient(
    p: RingElement, gen: str, power: int
) -> RingElement:
    """Coefficient of gen**power in an extension ring, as a base element."""
    ring = p.ring
    base = ring.base
    if base is None:
        raise RingError("element does not live in an extension ring")
    if ring.gen_names[-1] != gen or len(ring.gen_names) != len(base.gen_names) + 1:
        raise RingError(f"{ring.name} is not an extension by {gen!r}")
    i = len(base.gen_names)
    return ring._lower_to_base(t for t in p.terms if t[i] == power)


def umkehr_px(p: RingElement, n: int) -> RingElement:
    """Direct image along a trivial P^n fibre: the coefficient of x**n."""
    return _gen_power_coefficient(p, "x", n)


def umkehr_proj_bundle(p: RingElement) -> RingElement:
    """Direct image along a P^1 bundle with t^2 = w1 t + w2: coefficient of t."""
    return _gen_power_coefficient(p, "t", 1)


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


def _coeff_raw(p: RingElement, mono: Monomial) -> int:
    # Membership query without the normal-form gate; a non-basis monomial
    # simply has coefficient 0.
    return int(mono.exps in p.terms)


def _witnesses(ring: RingPresentation, part: list, limit: int = 6) -> str:
    """The first ``limit`` exponent tuples of a graded part, printed."""
    if not part:
        return "none"
    monos = [str(Monomial(ring, exps)) for exps in part[:limit]]
    if len(part) > limit:
        monos.append(f"... ({len(part)} total)")
    return ", ".join(monos)


def _prefix_xor(a: int, width: int) -> int:
    """(1+t)^-1 * a in GF(2)[t]/(t^width), bit i of ``a`` standing for t^i.

    Bit i of the result is the XOR of bits 0..i; doubling shifts build it
    in about log2(width) steps.
    """
    shift = 1
    while shift < width:
        a ^= a << shift
        shift <<= 1
    return a & ((1 << width) - 1)


# Every m of one r reads the same table; a sweep crosses few values of r.
@lru_cache(maxsize=4)
def _inverse_rows(r: int) -> tuple[int, ...]:
    """The rows u_j = (1+t)^-(j+1) mod t^(2^r), 0 <= j < 2^r, bit i
    standing for t^i, built by u_j = (1+t)^-1 u_(j-1).

    Truncation is a ring map, so for every m with 2^(r-1) <= m+1 < 2^r the
    bits i <= m of u_j are (1+t)^-(j+1) in the t,y,x ring of
    ``ring_yhat(m)``, and the series read from them are
    inv_ty = (1+t+y)^-1 = sum_j u_j y^j, w = (1+t)^-1 inv_ty with row j
    equal to u_(j+1), and S = w (1+x) = w + w x.

    The table is cross-checked by multiplying back: inv_ty (1+x) (1+t+x) = 1,
    since (1+x)(1+t+x) = 1+t+y by x^2 = y + t*x, and on an x-free series
    that says u_j (1+t) + u_(j-1) = delta_j0 row by row.
    """
    width = 1 << r
    u = [_prefix_xor(1, width)]
    for _ in range(width - 1):
        u.append(_prefix_xor(u[-1], width))
    mask = (1 << width) - 1
    if any((a ^ a << 1 ^ b) & mask != (j == 0) for j, (a, b) in enumerate(zip(u, [0] + u))):
        raise RingError("series routes for the inverse class disagree")
    return tuple(u)


# A series read from the table, as (row, shift, x_exp): the element
# t^shift (sum_j u_(j+row) y^j) (1+x)^x_exp.
_INV_TY = (0, 0, 0)
_W = (1, 0, 0)
_S = (1, 0, 1)
_T_S = (1, 1, 1)


def _part(m: int, series: tuple[int, int, int], d: int) -> list[tuple[int, int, int]]:
    """The exponents (i, j, e) of ``series`` present in degree
    d = i + 2j + e, in the (degree, exponents) order of
    ``RingElement.support``; no bit past t^m is read."""
    row, shift, x_exp = series
    u = _inverse_rows(DimensionParams(m).r)
    out = []
    for i in range(max(shift, d - 2 * m - 1), min(m, d) + 1):
        k = d - i  # = 2j + e
        if k & 1 <= x_exp and u[(k >> 1) + row] >> (i - shift) & 1:
            out.append((i, k >> 1, k & 1))
    return out


def check_prelude(m: int, n: int) -> VerificationReport:
    """Non-vanishing of the degree-n part of (1+t)^-1 over GF(2)[t]/(t^(m+1)).

    The inverse class is sum_i t^i, so the part is nonzero exactly when
    n <= m; this is the 1-line sanity check for the series machinery.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    p = DimensionParams(m)
    ring = ring_projective(m)
    t = ring.gen("t")
    w = invert(ring.one() + t)
    part = w.homogeneous_part(n)
    key = ring.monomial(t=n)
    expected = n <= m
    return VerificationReport(
        check="prelude",
        m=m,
        r=p.r,
        q=p.q,
        n=n,
        key_monomial=str(key),
        key_coefficient=_coeff_raw(w, key),
        passed=bool(part),
        detail=f"expected nonzero iff n <= m (here {expected}); "
        f"witnesses: {_witnesses(ring, [mo.exps for mo in part.support()])}",
    )


def _series_report(
    check: str, m: int, series: tuple[int, int, int], t_offset: int
) -> VerificationReport:
    """The report of one series check, which passes when the key
    t^(n-2m-1+t_offset) y^m x^x_exp of ``series`` has coefficient 1 and the
    part in the key's own degree, n-1+t_offset+x_exp, is nonzero (as the
    key alone already makes it).  ``ring_yhat(m)`` names the monomials."""
    if m < 1:
        raise ValueError("m must be >= 1")
    p = DimensionParams(m)
    ring = ring_yhat(m)
    x_exp = series[2]
    key = ring.monomial(t=p.n - 2 * m - 1 + t_offset, y=m, x=x_exp)
    degree = p.n - 1 + t_offset + x_exp
    part = _part(m, series, degree)
    coeff = int(key.exps in part)
    return VerificationReport(
        check=check,
        m=m,
        r=p.r,
        q=p.q,
        n=p.n,
        key_monomial=str(key),
        key_coefficient=coeff,
        passed=bool(part) and coeff == 1,
        detail=f"witnesses in degree {degree}: {_witnesses(ring, part)}",
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
    rep = _series_report("theorem_a_v2", m, _INV_TY, t_offset=1)
    if DimensionParams(m).boundary:
        raise ValueError("not applicable: m+1 = 2^(r-1)")
    return rep


def check_corollary(m: int) -> VerificationReport:
    """Coefficient of t^(n-2m-1) y^m in (1+t)^-1 (1+t+y)^-1 equals 1.

    This is the degree-(n-1) non-vanishing that forces four distinct points
    with collinear images for maps R^(m+1) -> R^n, n = m + 2^r - 1.
    """
    return _series_report("corollary", m, _W, t_offset=0)


@lru_cache(maxsize=4)
def _prop_q_series(m: int) -> tuple[RingPresentation, tuple[int, ...]]:
    """(ring, w) with w = (1+t0)^-1 (1+t0+x0)^-1 in ``ring = ring_y0(q, m)``,
    in row form: row a is the polynomial in s multiplying t0^a (a < 2^q),
    bit b standing for s^b.

    There t0 + x0 = s, so w = (1+t0)^-1 (1+s)^-1.  (1+s)^-1 is one row of
    2m+2 bits, and (1+t0)^-1 = sum_a t0^a copies it into every row.
    """
    q = DimensionParams(m).q
    return ring_y0(q, m), (_prefix_xor(1, 2 * m + 2),) * (1 << q)


def _top_degree(rows: tuple[int, ...]) -> int:
    return max((a + row.bit_length() - 1 for a, row in enumerate(rows) if row), default=-1)


def check_prop_q(m: int, n: int) -> VerificationReport:
    """Sharpness bound: w = (1+t0)^-1 (1+t0+x0)^-1 in the q-reduced ring
    (t0^(2^q) = 0, (t0+x0)^(2m+2) = 0) is nonzero exactly up to degree
    2m + 2^q.

    ``passed`` is non-vanishing at the queried n, with the exact top degree
    verified as a side condition; the Hurwitz-Radon comparison (alpha <= q)
    is included in the detail.
    """
    if m < 1 or n < 0:
        raise ValueError("m must be >= 1 and n >= 0")
    p = DimensionParams(m)
    q = p.q
    ring, rows = _prop_q_series(m)
    bound = 2 * m + (1 << q)
    top = _top_degree(rows)
    first = next(
        ((a, n - a) for a, row in enumerate(rows[: n + 1]) if row >> (n - a) & 1), None
    )
    hc = hurwitz_comparison(m)
    return VerificationReport(
        check="prop_q",
        m=m,
        r=p.r,
        q=q,
        n=n,
        key_monomial=str(Monomial(ring, first)) if first is not None else "",
        key_coefficient=1 if first is not None else 0,
        passed=first is not None and top == bound,
        detail=f"nonzero iff n <= 2m+2^q = {bound}; max nonzero degree {top}; "
        f"alpha = {hc['alpha']} <= q = {q}: exponent bound 2^alpha-1 = "
        f"{hc['remark_exponent']} vs sharp 2^q-1 = {hc['sharp_exponent']}",
    )


def prop_q_max_degree(m: int) -> int:
    """The top nonzero degree of the q-reduced inverse class (= 2m + 2^q)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _top_degree(_prop_q_series(m)[1])


def hurwitz_radon(n: int) -> int:
    """The Hurwitz-Radon number rho(n) = 8a + 2^b where n = 2^(4a+b) * odd."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v = (n & -n).bit_length() - 1
    a, b = divmod(v, 4)
    return 8 * a + (1 << b)


def alpha_of(m: int) -> int:
    """The largest alpha >= 0 with (alpha = 0 or 2^(alpha-1) + 1 <= rho(m+1)).

    This is the number of independent vector fields bound expressed on the
    exponent scale used by the sharpness remark: degrees up to 2^alpha - 1
    survive for Hurwitz-Radon reasons, and alpha <= q always.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    rho = hurwitz_radon(m + 1)
    alpha = 0
    while (1 << alpha) + 1 <= rho:
        alpha += 1
    return alpha


def hurwitz_comparison(m: int) -> dict:
    """Side-by-side of the Hurwitz-Radon exponent bound and the sharp one."""
    q = DimensionParams(m).q
    alpha = alpha_of(m)
    return {
        "m": m,
        "q": q,
        "rho": hurwitz_radon(m + 1),
        "alpha": alpha,
        "remark_exponent": (1 << alpha) - 1,
        "sharp_exponent": (1 << q) - 1,
        "alpha_le_q": alpha <= q,
    }


# The four line classes in the span of t1, t2 over a product of two
# projective spaces, and all 16 ways of assigning two of them.
_LINE_BITS = ((0, 0), (1, 0), (0, 1), (1, 1))
LINE_SPECS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = tuple(
    (a, b) for a in _LINE_BITS for b in _LINE_BITS
)


def _line_class(ring: RingPresentation, bits: tuple[int, int]) -> RingElement:
    el = ring.zero()
    if bits[0]:
        el = el + ring.gen("t1")
    if bits[1]:
        el = el + ring.gen("t2")
    return el


@lru_cache(maxsize=4)
def _product_rings(
    m1: int, m2: int, n: int
) -> tuple[RingPresentation, dict[tuple[int, int], RingElement]]:
    """The base P^m1 x P^m2 and the Euler class of each line class over it.

    Shared by the 16 line specs of one grid point; the cache is bounded, so
    a sweep over any grid holds at most a few grid points' rings.
    """
    base = ring_truncated(
        f"P{m1}xP{m2}", [("t1", 1, m1 + 1), ("t2", 1, m2 + 1)]
    )
    ring_x = ring_adjoin_x(base, n)
    eulers = {
        bits: euler_line_tensor_quotient(_line_class(ring_x, bits), n, ring_x)
        for bits in _LINE_BITS
    }
    return base, eulers


def oracle_umkehr_product(
    m1: int, m2: int, n: int, line_spec: tuple[tuple[int, int], tuple[int, int]]
) -> bool:
    """Brute-force check of the direct-image product formula.

    Over a base with two truncated degree-1 classes t1, t2 and a trivial
    P^n fibre, the direct image of the product of the two rank-n Euler
    classes must equal the degree-n part of the inverse class of the rank-2
    sum of the two lines.  Returns True iff both routes agree exactly.
    The rings and the four line Euler classes are shared per (m1, m2, n);
    the product, its direct image and the inverse class are not.
    """
    if m1 < 0 or m2 < 0 or n < 1:
        raise ValueError("need m1, m2 >= 0 and n >= 1")
    base, eulers = _product_rings(m1, m2, n)
    try:
        e1, e2 = (eulers[tuple(bits)] for bits in line_spec)
    except KeyError:
        raise ValueError(f"line_spec needs two 0/1 pairs, got {line_spec!r}") from None
    lhs = umkehr_px(e1 * e2, n)
    total = (base.one() + _line_class(base, line_spec[0])) * (
        base.one() + _line_class(base, line_spec[1])
    )
    rhs = w_minus(BundleClass(2, total)).homogeneous_part(n)
    return lhs == rhs


def oracle_umkehr_dual(k: int, n: int) -> bool:
    """Brute-force check of the projective-bundle power identity.

    In base[t] with t^2 = w1 t + w2 over the free truncated ring on w1, w2
    (both truncated at power k), expand t^(n+1) and compare both graded
    pieces against the inverse class of 1 + w1 + w2:

        t^(n+1) = wbar_n * t + w2 * wbar_(n-1),  wbar = (1+w1+w2)^-1.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    base = ring_truncated(f"W{k}", [("w1", 1, k), ("w2", 2, k)])
    w1, w2 = base.gens()
    ring_t = ring_proj_bundle(base, w1, w2)
    t = ring_t.gen("t")
    tn1 = t ** (n + 1)
    wbar = invert(base.one() + w1 + w2)
    c1 = umkehr_proj_bundle(tn1)
    c0 = _gen_power_coefficient(tn1, "t", 0)
    return c1 == wbar.homogeneous_part(n) and c0 == w2 * wbar.homogeneous_part(n - 1)


def all_checks(m: int) -> list[VerificationReport]:
    """The six standard reports for one m: prelude at n = m, both theorem
    routes, the corollary, and the sharpness bound at its top degree."""
    p = DimensionParams(m)
    reports = [check_prelude(m, m), check_theorem_b(m), check_theorem_a(m)]
    if p.boundary:
        reports.append(
            VerificationReport(
                check="theorem_a_v2",
                m=m,
                r=p.r,
                q=p.q,
                n=p.n,
                key_monomial="",
                key_coefficient=0,
                passed=False,
                detail="not applicable: m+1 = 2^(r-1)",
            )
        )
    else:
        reports.append(check_theorem_a_v2(m))
    reports.append(check_corollary(m))
    reports.append(check_prop_q(m, 2 * m + (1 << p.q)))
    return reports


def expected_outcome(check: str, m: int) -> bool:
    """Whether a standard check is expected to pass at this m."""
    if check in ("theorem_a", "theorem_a_v2"):
        return not DimensionParams(m).boundary
    return True
