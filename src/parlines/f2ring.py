"""Exact arithmetic in graded truncated polynomial rings over GF(2).

Every ring here is presented by a short list of graded generators, each
bounded by exactly one relation:

* a truncation ``g**b = 0``, or
* a quadratic rewrite ``g**2 -> (terms with exponent of g at most 1)``.

So every generator has a cap, its largest normal-form exponent (``b - 1``,
or 1 under a rewrite), and every ring has a finite monomial basis.

An element is one Python int with one bit per normal-form monomial.
Generator i is a digit of radix ``2*cap_i + 1``, and a monomial sits at the
position its exponents spell in those digits.  The product of two normal
monomials then adds their positions with no carry, so a multiply shifts one
operand by each set bit of the other and XORs, then keeps the positions of
normal monomials with one AND.  A position where a rewrite digit reached 2
is replaced by its normal form, which the tuple route ``_reduce_mono``
works out once per ring and position.  Addition is XOR and equality of
elements is int equality.  An extension's new generator is the top digit,
so its base's layout is a prefix: lifting keeps the bits, and the
coefficient of a power of the new generator is a shift and a mask.  Masks
and memos are built on first use, so a ring costs little until it
multiplies.

All values are immutable and every operation is pure; two elements may only
be combined when they belong to the *same* presentation object (there is no
implicit coercion between isomorphic rings).

The constructors at the bottom build the specific rings of the
characteristic-class checks: truncated polynomial rings, the ring with the
quadratic relation ``x**2 = y + t*x``, and two generic extensions (adjoining
a truncated generator, and a projective-bundle extension
``t**2 = w1*t + w2``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul
from typing import Iterable, Iterator

__all__ = [
    "RingError",
    "Monomial",
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


@dataclass(frozen=True)
class Monomial:
    """A single monomial of one ring, stored as an exponent tuple.

    ``exps`` is aligned with ``ring.gen_names``.  Instances are plain data:
    they are *not* checked for normal form on construction (the element
    operations that require normal form check it themselves).
    """

    ring: "RingPresentation"
    exps: tuple[int, ...]

    @property
    def exponents(self) -> dict[str, int]:
        """The nonzero exponents keyed by generator name."""
        return {n: e for n, e in zip(self.ring.gen_names, self.exps) if e}

    def degree(self) -> int:
        return _mono_degree(self.ring.gen_degrees, self.exps)

    def __str__(self) -> str:
        return monomial_name(self.ring.gen_names, self.exps)


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
    """Generators, degrees and the normal-form rule of one presented ring.

    ``truncations`` maps a generator name to its bound b (``g**b = 0``,
    b >= 1); ``rewrites`` maps a generator name to the GF(2) sum of exponent
    tuples, aligned with the generators, that replaces its square.  Every
    generator takes exactly one of the two.  ``base`` names the ring this
    one extends: its generators and relations must come first, unchanged.

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
        rewrites: dict[str, Iterable[tuple[int, ...]]] | None = None,
        base: "RingPresentation | None" = None,
    ) -> None:
        gens = list(generators)
        self.name = str(name)
        self.gen_names: tuple[str, ...] = tuple(n for n, _ in gens)
        self.gen_degrees: tuple[int, ...] = tuple(int(d) for _, d in gens)
        if len(set(self.gen_names)) != len(self.gen_names):
            raise RingError(f"duplicate generator names in {self.name}")
        if not self.gen_names:
            raise RingError("a presentation needs at least one generator")
        if any(d < 1 for d in self.gen_degrees):
            raise RingError("generator degrees must be positive")
        self._index = {n: i for i, n in enumerate(self.gen_names)}
        trunc = dict(truncations or {})
        rules = dict(rewrites or {})
        unknown = sorted((set(trunc) | set(rules)) - set(self.gen_names))
        if unknown:
            raise RingError(f"relations for unknown generators {unknown}")
        if any(b < 1 for b in trunc.values()):
            raise RingError("truncation bounds must be >= 1")
        for n in self.gen_names:
            if (n in trunc) == (n in rules):
                raise RingError(
                    f"generator {n!r} of {self.name} needs a truncation or a rewrite, "
                    "and not both"
                )
        # Rewrite generators have no bound: a raw monomial's exponent there
        # may pass 1 until it is rewritten.
        self._bounds = tuple(trunc.get(n) for n in self.gen_names)
        rewritten = [i for i, n in enumerate(self.gen_names) if n in rules]
        self._rewrites = {
            i: self._check_rewrite(i, rules[self.gen_names[i]], rewritten) for i in rewritten
        }
        self._caps = tuple(1 if b is None else b - 1 for b in self._bounds)
        radices = [2 * c + 1 for c in self._caps]
        self._radices = tuple(radices)
        self._places = tuple(itertools.accumulate([1] + radices[:-1], mul))
        self._normal_forms: dict[int, int] = {}
        self._degree_masks: dict[int, int] = {}
        self.base = base
        if base is not None:
            # Lifting keeps an element's bits, which is only right when the
            # base layout is a prefix of this one under the same relations.
            k = len(base.gen_names)
            pad = (0,) * (len(self.gen_names) - k)
            if (self.gen_names[:k], self.gen_degrees[:k], self._bounds[:k]) != (
                base.gen_names, base.gen_degrees, base._bounds
            ) or any(
                self._rewrites[i] != tuple(e + pad for e in rep)
                for i, rep in base._rewrites.items()
            ):
                raise RingError("the base ring's generators and relations must come first")

    def _check_rewrite(
        self, i: int, terms: Iterable[tuple[int, ...]], rewritten: list[int]
    ) -> tuple:
        """The replacement of g_i**2 as sorted exponent tuples, duplicates
        cancelled, after checking it lowers g_i, keeps the degree and has no
        rewrite generator after g_i.  So each rewrite lowers the rewrite
        exponents read from the last generator down, lexicographically, and
        normal forms terminate."""
        want = 2 * self.gen_degrees[i]
        acc: set[tuple[int, ...]] = set()
        for exps in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.gen_names) or min(exps) < 0:
                raise RingError("rewrite terms need one exponent >= 0 per generator")
            if exps[i] > 1:
                raise RingError("rewrite must lower the generator exponent")
            if any(exps[j] for j in rewritten if j > i):
                raise RingError("a rewrite may not involve a later rewrite generator")
            if _mono_degree(self.gen_degrees, exps) != want:
                raise RingError("rewrite replacement has the wrong degree")
            acc ^= {exps}
        return tuple(sorted(acc))

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

    def monomial(self, **exponents: int) -> Monomial:
        exps = [0] * len(self.gen_names)
        for name, e in exponents.items():
            i = self._gen_index(name)
            if e < 0:
                raise RingError(f"negative exponent for {name}")
            exps[i] = int(e)
        return Monomial(self, tuple(exps))

    def element(self, *monomials: Monomial) -> "RingElement":
        """The GF(2) sum of the given monomials (duplicates cancel)."""
        for mo in monomials:
            if mo.ring is not self:
                raise RingError("monomial from a different ring")
        return self._element_from(mo.exps for mo in monomials)

    # -- normal form ---------------------------------------------------------

    def _gen_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RingError(f"{self.name} has no generator {name!r}") from None

    def _trunc_dead(self, exps: tuple[int, ...]) -> bool:
        return any(b is not None and e >= b for e, b in zip(exps, self._bounds))

    def _is_normal_mono(self, exps: tuple[int, ...]) -> bool:
        return len(exps) == len(self._caps) and all(
            0 <= e <= c for e, c in zip(exps, self._caps)
        )

    def _reduce_mono(self, exps: tuple[int, ...]) -> set[tuple[int, ...]]:
        """Normal form of one raw monomial, as a set of normal monomials.

        Exponents of truncated generators only ever grow while rewriting,
        so a truncation hit can prune a branch before full expansion.
        """
        if self._trunc_dead(exps):
            return set()
        for i, rep in self._rewrites.items():
            if exps[i] >= 2:
                rest = list(exps)
                rest[i] -= 2
                acc: set[tuple[int, ...]] = set()
                for rexps in rep:
                    acc ^= self._reduce_mono(tuple(map(add, rest, rexps)))
                return acc
        return {exps}

    def _element_from(self, raw: Iterable[tuple[int, ...]]) -> "RingElement":
        acc: set[tuple[int, ...]] = set()
        for exps in raw:
            acc ^= self._reduce_mono(exps)
        return RingElement(self, sum(1 << self._position(exps) for exps in acc))

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

    @cached_property
    def _pending(self) -> int:
        """The positions, among products of two normal monomials, that have
        a rewrite digit 2 and no truncated digit past its cap."""
        return self._tiled(
            2 if i in self._rewrites else c for i, c in enumerate(self._caps)
        ) & ~self._live

    def _normal_form(self, pos: int) -> int:
        """The packed normal form of the raw monomial at ``pos``, memoised."""
        bits = self._normal_forms.get(pos)
        if bits is None:
            bits = self._normal_forms[pos] = self._element_from([self._exps_at(pos)]).bits
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

    # -- basis enumeration ----------------------------------------------------

    def basis(self, max_degree: int | None = None) -> Iterator[Monomial]:
        """All normal-form monomials (optionally up to a degree cut-off)."""
        degs = self.gen_degrees
        for exps in itertools.product(*(range(c + 1) for c in self._caps)):
            if max_degree is not None and _mono_degree(degs, exps) > max_degree:
                continue
            yield Monomial(self, exps)

    def top_degree(self) -> int:
        """An upper bound for the degree of any nonzero element."""
        return sum(c * d for c, d in zip(self._caps, self.gen_degrees))

    # -- base-ring plumbing ----------------------------------------------------

    def lift_from_base(self, p: "RingElement") -> "RingElement":
        """Image of a base-ring element under the canonical inclusion."""
        if self.base is None or p.ring is not self.base:
            raise RingError("element does not belong to this ring's base")
        return RingElement(self, p.bits)

    def base_coefficient(self, p: "RingElement", power: int) -> "RingElement":
        """The coefficient of g**power in ``p``, as a base element, where g
        is the one generator this ring adds to its base."""
        if p.ring is not self:
            raise RingError("element from a different ring")
        if self.base is None or len(self.gen_names) != len(self.base.gen_names) + 1:
            raise RingError(f"{self.name} does not extend its base by one generator")
        place = self._places[-1]
        return RingElement(self.base, p.bits >> (power * place) & ((1 << place) - 1))

    def from_base_coefficients(self, coefficients: dict[int, "RingElement"]) -> "RingElement":
        """The element sum_k c_k g**k for base elements c_k = coefficients[k],
        where g is the one generator this ring adds to its base; the inverse
        of ``base_coefficient``.  Powers of a truncated g past its cap are
        zero and dropped; a rewrite generator takes powers up to 1 only.
        g is the top digit of the packed layout, so c_k's bits are shifted
        by k times g's place."""
        if self.base is None or len(self.gen_names) != len(self.base.gen_names) + 1:
            raise RingError(f"{self.name} does not extend its base by one generator")
        place, cap = self._places[-1], self._caps[-1]
        truncated = self._bounds[-1] is not None
        bits = 0
        for power, c in coefficients.items():
            if c.ring is not self.base:
                raise RingError("coefficients must belong to this ring's base")
            if power < 0 or (power > cap and not truncated):
                raise RingError(f"no power {power} of the added generator here")
            if power <= cap:
                bits ^= c.bits << (power * place)
        return RingElement(self, bits)

    def __repr__(self) -> str:
        return f"<ring {self.name}: {', '.join(self.gen_names)}>"


def _mono_degree(degs: tuple[int, ...], exps: tuple[int, ...]) -> int:
    return sum(map(mul, exps, degs))


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
        self._check_ring(other)
        ring = self.ring
        a, b = self.bits, other.bits
        if a.bit_count() > b.bit_count():
            a, b = b, a
        raw = 0
        for pos in _positions(a):
            raw ^= b << pos
        bits = raw & ring._live
        if ring._rewrites:
            for pos in _positions(raw & ring._pending):
                bits ^= ring._normal_form(pos)
        return RingElement(ring, bits)

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

    def coefficient(self, mono: Monomial) -> int:
        """The GF(2) coefficient of a normal-form monomial (0 or 1)."""
        if mono.ring is not self.ring:
            raise RingError("monomial from a different ring")
        if not self.ring._is_normal_mono(mono.exps):
            raise RingError(f"{mono} is not a normal-form monomial of {self.ring.name}")
        return self.bits >> self.ring._position(mono.exps) & 1

    def homogeneous_part(self, d: int) -> "RingElement":
        return RingElement(self.ring, self.bits & self.ring._degree_mask(d))

    def max_nonzero_degree(self) -> int:
        """The top degree with a nonzero part, or -1 for the zero element."""
        degs = self.ring.gen_degrees
        return max((_mono_degree(degs, t) for t in self.terms), default=-1)

    def support(self) -> tuple[Monomial, ...]:
        """The monomials present, in the canonical (degree, exponents) order."""
        degs = self.ring.gen_degrees
        ordered = sorted(self.terms, key=lambda t: (_mono_degree(degs, t), t))
        return tuple(Monomial(self.ring, t) for t in ordered)

    def __str__(self) -> str:
        if not self.bits:
            return "0"
        return " + ".join(str(mo) for mo in self.support())

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
    and the rewrite x**2 = y + t*x; basis t^i y^j x^eps, 0 <= i,j <= m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return RingPresentation(
        f"Yhat{m}",
        [("t", 1), ("y", 2), ("x", 1)],
        truncations={"t": m + 1, "y": m + 1},
        rewrites={"x": [(0, 1, 0), (1, 0, 1)]},  # y + t*x
    )


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


def _extend(
    base: RingPresentation,
    name: str,
    gen: tuple[str, int],
    *,
    truncation: int | None = None,
    rewrite: Iterable[tuple[int, ...]] | None = None,
) -> RingPresentation:
    """A new presentation with one generator appended after the base's,
    bounded by ``truncation`` or by ``rewrite`` (its square's replacement)."""
    gname = gen[0]
    if gname in base.gen_names:
        raise RingError(f"generator name {gname!r} clashes with the base ring")
    trunc = {n: b for n, b in zip(base.gen_names, base._bounds) if b is not None}
    rules = {
        base.gen_names[i]: [exps + (0,) for exps in rep]
        for i, rep in base._rewrites.items()
    }
    if truncation is not None:
        trunc[gname] = truncation
    if rewrite is not None:
        rules[gname] = rewrite
    return RingPresentation(
        name,
        list(zip(base.gen_names, base.gen_degrees)) + [gen],
        truncations=trunc,
        rewrites=rules,
        base=base,
    )


def ring_adjoin_x(base: RingPresentation, n: int) -> RingPresentation:
    """base ⊗ GF(2)[x]/(x**(n+1)) with a fresh degree-1 generator x."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _extend(base, f"{base.name}[x;{n}]", ("x", 1), truncation=n + 1)


def ring_proj_bundle(
    base: RingPresentation, w1: RingElement, w2: RingElement
) -> RingPresentation:
    """base[t] with deg t = 1 and the rewrite t**2 = w1*t + w2.

    ``w1`` and ``w2`` must be base-ring elements, homogeneous of degrees
    1 and 2 (either may be zero); basis monomials carry t-exponent <= 1.
    """
    for w, d in ((w1, 1), (w2, 2)):
        if w.ring is not base:
            raise RingError("w1 and w2 must live in the base ring")
        if w and w != w.homogeneous_part(d):
            raise RingError(f"expected a homogeneous element of degree {d}")
    rewrite = [exps + (1,) for exps in w1.terms] + [exps + (0,) for exps in w2.terms]
    return _extend(base, f"{base.name}[t|{w1},{w2}]", ("t", 1), rewrite=rewrite)
