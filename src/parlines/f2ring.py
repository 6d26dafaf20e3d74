"""Exact arithmetic in graded truncated polynomial rings over GF(2).

Every ring here is presented by a short list of graded generators.  Each
one is truncated, ``g**b = 0``, except that the top (last) generator g may
instead satisfy the square relation ``g**2 = w1*g + w2``, with w1 and w2
elements of the ring the other generators present.  That is the shape of
the projective bundle formula, H*(P(E)) = H*(B)[g]/(g^2 + w1 g + w2) for a
2-plane bundle E over B.  So every generator has a cap, its largest
normal-form exponent (``b - 1``, or 1 for the square generator), and every
ring has a finite monomial basis.

An element is one Python int with one bit per normal-form monomial.
Generator i is a digit of radix ``2*cap_i + 1``, and a monomial sits at the
position its exponents spell in those digits.  The product of two normal
monomials then adds their positions with no carry, so a multiply shifts one
operand by each set bit of the other and XORs, then keeps the positions of
normal monomials with one AND.  Under a square relation g is the top digit,
of radix 3, so the raw product's bits from twice g's place upward are the
coefficient h of g**2; two multiplies in the base, h*w2 and h*w1 shifted to
g's place, replace them.  Addition is XOR and equality of elements is int
equality.  An extension is its base plus one generator on top, so the
base's layout is a prefix: a base element keeps its bits in the extension,
and the coefficient of a power of the new generator is a shift and a mask.
Masks are built on first use, so a ring costs little until it multiplies.

All values are immutable and every operation is pure; two elements may only
be combined when they belong to the *same* presentation object (there is no
implicit coercion between isomorphic rings).

The constructors at the bottom build the specific rings of the
characteristic-class checks: truncated polynomial rings, the ring
``x**2 = t*x + y`` over a truncated GF(2)[t, y], and two generic extensions
(adjoining a truncated generator, and a projective-bundle extension
``t**2 = w1*t + w2``).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import mul
from typing import Iterable, Iterator

__all__ = [
    "RingError",
    "monomial_name",
    "RingElement",
    "RingPresentation",
    "invert",
    "ring_truncated",
    "ring_projective",
    "ring_yhat",
    "ring_y0",
    "ring_adjoin_x",
    "ring_proj_bundle",
]


class RingError(ValueError):
    """A presentation violation, or an operation mixing distinct rings."""


def monomial_name(names: tuple[str, ...], exps: tuple[int, ...]) -> str:
    """The printed monomial, such as ``t^3*y*x``, for exponents aligned with
    generator names; "1" when every exponent is 0."""
    if not any(exps):
        return "1"
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e > 0)


def _positions(bits: int) -> list[int]:
    """The positions of the set bits of a non-negative int, highest first."""
    s = bin(bits)
    top = len(s) - 1
    out = []
    j = s.find("1", 2)
    while j >= 0:
        out.append(top - j)
        j = s.find("1", j + 1)
    return out


def _tile(block: int, stride: int, count: int) -> int:
    """``count`` >= 1 copies of ``block``, which fits in ``stride`` bits, one
    every ``stride`` bits, in about log2(count) shifts."""
    if count == 1:
        return block
    half = _tile(block, stride, count // 2)
    out = half | half << (count // 2 * stride)
    return out | block << ((count - 1) * stride) if count & 1 else out


class RingPresentation:
    """Generators, degrees and relations of one presented ring.

    ``truncations`` maps a generator name to its bound b (``g**b = 0``,
    b >= 1).  Without ``base`` every generator takes a truncation.  With
    ``base``, the ring this one extends, ``generators`` is exactly one
    generator g, put on top of the base's generators, which keep the
    base's degrees and truncations; g takes a truncation, or ``square``, a
    pair (w1, w2) of elements of ``base``, homogeneous of degrees d and 2d
    where d is g's degree, that binds it by ``g**2 = w1*g + w2``.  A base
    with a square relation cannot be extended.  ``base`` and ``square``
    stay attributes, None when not given.

    Instances are built by the module-level constructors and treated as
    immutable afterwards.  Elements keep a reference to their presentation
    and refuse to combine with elements of any other presentation.
    """

    def __init__(
        self,
        name: str,
        generators: Iterable[tuple[str, int]],
        *,
        truncations: dict[str, int] | None = None,
        square: "tuple[RingElement, RingElement] | None" = None,
        base: "RingPresentation | None" = None,
    ) -> None:
        own = list(generators)
        self.name = str(name)
        self.base = base
        self.square = square
        bounds: tuple[int | None, ...] = ()
        if base is not None:
            if len(own) != 1:
                raise RingError(f"{self.name} must add exactly one generator to its base")
            if base.square is not None:
                raise RingError(f"{base.name} has a square relation and cannot be extended")
            own = list(zip(base.gen_names, base.gen_degrees)) + own
            bounds = base._bounds
        elif square is not None:
            raise RingError("a square relation needs a base")
        self.gen_names: tuple[str, ...] = tuple(n for n, _ in own)
        self.gen_degrees: tuple[int, ...] = tuple(int(d) for _, d in own)
        if len(set(self.gen_names)) != len(self.gen_names):
            raise RingError(f"duplicate generator names in {self.name}")
        if not self.gen_names:
            raise RingError("a presentation needs at least one generator")
        if any(d < 1 for d in self.gen_degrees):
            raise RingError("generator degrees must be positive")
        self._index = {n: i for i, n in enumerate(self.gen_names)}
        # Every added generator takes a truncation, but a top one bound by
        # the square relation.
        added = self.gen_names[len(bounds):]
        trunc = dict(truncations or {})
        want = sorted(added[:-1] if square is not None else added)
        if sorted(trunc) != want:
            raise RingError(f"{self.name} needs truncations for {want}, got {sorted(trunc)}")
        if any(b < 1 for b in trunc.values()):
            raise RingError("truncation bounds must be >= 1")
        # The square generator has no bound: a raw product's exponent there
        # reaches 2 before the relation lowers it.
        self._bounds = bounds + tuple(trunc.get(n) for n in added)
        self._caps = tuple(1 if b is None else b - 1 for b in self._bounds)
        radices = [2 * c + 1 for c in self._caps]
        self._radices = tuple(radices)
        self._places = tuple(itertools.accumulate([1] + radices[:-1], mul))
        self._degree_masks: dict[int, int] = {}
        if square is not None:
            d = self.gen_degrees[-1]
            for w, wd in zip(square, (d, 2 * d)):
                if w.ring is not base:
                    raise RingError("w1 and w2 must live in the base ring")
                if w != w.homogeneous_part(wd):
                    raise RingError(f"expected a homogeneous element of degree {wd}")

    # -- element factories --------------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, 0)

    def one(self) -> "RingElement":
        return RingElement(self, 1)

    def gen(self, name: str) -> "RingElement":
        """The generator as an element (may be 0, e.g. t in F2[t]/(t^1))."""
        i = self._gen_index(name)
        return RingElement(self, 1 << self._places[i] if self._caps[i] else 0)

    def gens(self) -> tuple["RingElement", ...]:
        return tuple(self.gen(n) for n in self.gen_names)

    def _gen_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RingError(f"{self.name} has no generator {name!r}") from None

    # -- the packed layout ----------------------------------------------------

    def _position(self, exps: tuple[int, ...]) -> int:
        return sum(map(mul, exps, self._places))

    def _exps_at(self, pos: int) -> tuple[int, ...]:
        """The exponents at a position (digits of the mixed radix)."""
        out = []
        for r in self._radices:
            pos, e = divmod(pos, r)
            out.append(e)
        return tuple(out)

    def _tiled(self, tops: Iterable[int]) -> int:
        """The mask of positions whose digit i is at most ``tops[i]``."""
        mask = 1
        for top, place in zip(tops, self._places):
            mask = _tile(mask, place, top + 1)
        return mask

    @cached_property
    def _live(self) -> int:
        """The positions of normal-form monomials."""
        return self._tiled(self._caps)

    def _mul(self, a: int, b: int) -> int:
        """The packed product of two packed normal elements."""
        if a.bit_count() > b.bit_count():
            a, b = b, a
        # One shifted copy of b per set bit of the sparser a, highest first.
        raw = 0
        while a:
            pos = a.bit_length() - 1
            raw ^= b << pos
            a ^= 1 << pos
        bits = raw & self._live
        if self.square is not None:
            # The top digit has radix 3, so the bits from 2*place up are
            # the coefficient h of g**2, and g**2 = w1*g + w2.
            base, place = self.base, self._places[-1]
            h = raw >> 2 * place & base._live
            if h:
                w1, w2 = self.square
                bits ^= base._mul(h, w2.bits) ^ base._mul(h, w1.bits) << place
        return bits

    def _exps_of_degree(self, d: int, i: int = 0) -> Iterator[tuple[int, ...]]:
        """The normal exponent tuples of degree d over generators i, i+1, ..."""
        deg, cap = self.gen_degrees[i], self._caps[i]
        if i == len(self._caps) - 1:
            e, rest = divmod(d, deg)
            if not rest and 0 <= e <= cap:
                yield (e,)
            return
        for e in range(min(cap, d // deg) + 1):
            for tail in self._exps_of_degree(d - e * deg, i + 1):
                yield (e,) + tail

    def _degree_mask(self, d: int) -> int:
        mask = self._degree_masks.get(d)
        if mask is None:
            mask = self._degree_masks[d] = sum(
                1 << self._position(exps) for exps in self._exps_of_degree(d)
            )
        return mask

    def top_degree(self) -> int:
        """An upper bound for the degree of any nonzero element."""
        return sum(c * d for c, d in zip(self._caps, self.gen_degrees))

    # -- base-ring plumbing ----------------------------------------------------

    def base_coefficient(self, p: "RingElement", power: int) -> "RingElement":
        """The coefficient of g**power in ``p``, as a base element, where g
        is the generator this ring adds to its base."""
        if p.ring is not self:
            raise RingError("element from a different ring")
        if self.base is None:
            raise RingError(f"{self.name} does not extend a base")
        place = self._places[-1]
        return RingElement(self.base, p.bits >> (power * place) & ((1 << place) - 1))

    def from_base_coefficients(self, coefficients: dict[int, "RingElement"]) -> "RingElement":
        """The element sum_k c_k g**k for base elements c_k = coefficients[k],
        where g is the generator this ring adds to its base; the inverse of
        ``base_coefficient``, and with ``{0: p}`` the inclusion of the base.
        Powers of a truncated g past its cap are zero and dropped; a g bound
        by the square relation takes powers 0 and 1 only, the normal form's.
        g is the top digit of the packed layout, so c_k's bits are shifted
        by k times g's place."""
        if self.base is None:
            raise RingError(f"{self.name} does not extend a base")
        place, cap = self._places[-1], self._caps[-1]
        bits = 0
        for power, c in coefficients.items():
            if c.ring is not self.base:
                raise RingError("coefficients must belong to this ring's base")
            if power < 0 or (power > cap and self.square is not None):
                raise RingError(f"no power {power} of the added generator here")
            if power <= cap:
                bits ^= c.bits << (power * place)
        return RingElement(self, bits)

    def __repr__(self) -> str:
        return f"<ring {self.name}: {', '.join(self.gen_names)}>"


class RingElement:
    """A GF(2) sum of normal-form monomials of one presented ring, stored
    as one int with a bit per monomial (see the module docstring)."""

    __slots__ = ("ring", "bits")

    def __init__(self, ring: RingPresentation, bits: int) -> None:
        self.ring = ring
        self.bits = bits

    @property
    def terms(self) -> frozenset[tuple[int, ...]]:
        """The exponent tuples of the monomials present."""
        return frozenset(map(self.ring._exps_at, _positions(self.bits)))

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "RingElement") -> None:
        if other.ring is not self.ring:
            raise RingError(
                f"cannot combine elements of {self.ring.name} and {other.ring.name}"
            )

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check_ring(other)
        return RingElement(self.ring, self.bits ^ other.bits)

    def __mul__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        ring = self.ring
        if other.ring is not ring:
            self._check_ring(other)
        return RingElement(ring, ring._mul(self.bits, other.bits))

    def __pow__(self, k: int) -> "RingElement":
        if not isinstance(k, int) or k < 0:
            raise RingError("exponent must be a non-negative integer")
        result = self.ring.one()
        square = self
        while k:
            if k & 1:
                result = result * square
            k >>= 1
            if k:
                square = square * square
        return result

    # -- structure ------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.bits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingElement)
            and other.ring is self.ring
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.bits))

    def constant_term(self) -> int:
        return self.bits & 1

    def homogeneous_part(self, d: int) -> "RingElement":
        return RingElement(self.ring, self.bits & self.ring._degree_mask(d))

    def __str__(self) -> str:
        if not self.bits:
            return "0"
        names, degs = self.ring.gen_names, self.ring.gen_degrees
        ordered = sorted(self.terms, key=lambda t: (sum(map(mul, t, degs)), t))
        return " + ".join(monomial_name(names, t) for t in ordered)

    def __repr__(self) -> str:
        return str(self)


def invert(u: RingElement) -> RingElement:
    """The inverse of a unit ``1 + p``, by repeated squaring.

    Over GF(2), ``(1+p)(1+p^2)(1+p^4)...(1+p^(2^k)) = 1 + p^(2^(k+1))`` times
    the inverse, so the product is the inverse once ``p^(2^(k+1))`` vanishes;
    it does once ``2^(k+1)`` passes the ring's top degree, because ``p`` has
    no constant term.  A unit is required to have constant term 1.
    """
    ring = u.ring
    if u.constant_term() != 1:
        raise RingError("invert requires constant term 1")
    q = u + ring.one()
    result = ring.one()
    for _ in range(ring.top_degree().bit_length() + 1):
        if not q:
            return result
        result = result + result * q
        q = q * q
    raise RingError("the squaring series failed to terminate")


# -- concrete presentations ------------------------------------------------


def ring_truncated(
    name: str, gens: Iterable[tuple[str, int, int]]
) -> RingPresentation:
    """GF(2)[g1, ..., gk] / (g1**b1, ..., gk**bk).

    ``gens`` lists (name, degree, bound) triples; each bound must be >= 1
    (bound 1 makes the generator zero).
    """
    triples = list(gens)
    return RingPresentation(
        name,
        [(n, d) for n, d, _ in triples],
        truncations={n: b for n, _, b in triples},
    )


def ring_projective(m: int) -> RingPresentation:
    """GF(2)[t] / (t**(m+1)) with deg t = 1 (m >= 0; m = 0 makes t = 0)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return ring_truncated(f"P{m}", [("t", 1, m + 1)])


def ring_yhat(m: int) -> RingPresentation:
    """Generators t, y, x (degrees 1, 2, 1) with t**(m+1) = y**(m+1) = 0
    and x**2 = t*x + y; basis t^i y^j x^eps, 0 <= i,j <= m.  The base is
    the truncated GF(2)[t, y].
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    base = ring_truncated(f"TY{m}", [("t", 1, m + 1), ("y", 2, m + 1)])
    return RingPresentation(f"Yhat{m}", [("x", 1)], square=base.gens(), base=base)


def ring_y0(q: int, m: int) -> RingPresentation:
    """GF(2)[t0, s] / (t0**(2^q), s**(2m+2)), both generators of degree 1.

    Requires 2^q | m+1.  For q = 0 the generator t0 is zero.
    """
    if q < 0 or m < 0:
        raise ValueError("q and m must be >= 0")
    if (m + 1) % (1 << q):
        raise ValueError("2^q must divide m+1")
    return ring_truncated(
        f"Y0(q={q},m={m})", [("t0", 1, 1 << q), ("s", 1, 2 * m + 2)]
    )


def ring_adjoin_x(base: RingPresentation, n: int) -> RingPresentation:
    """base ⊗ GF(2)[x]/(x**(n+1)) with a fresh degree-1 generator x."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return RingPresentation(
        f"{base.name}[x;{n}]", [("x", 1)], truncations={"x": n + 1}, base=base
    )


def ring_proj_bundle(
    base: RingPresentation, w1: RingElement, w2: RingElement
) -> RingPresentation:
    """base[t] with deg t = 1 and t**2 = w1*t + w2.

    ``w1`` and ``w2`` must be base-ring elements, homogeneous of degrees
    1 and 2 (either may be zero); basis monomials carry t-exponent <= 1.
    """
    return RingPresentation(
        f"{base.name}[t|{w1},{w2}]", [("t", 1)], square=(w1, w2), base=base
    )
