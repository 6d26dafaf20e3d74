"""Exact arithmetic in graded truncated polynomial rings over GF(2).

Every ring here is presented by a short list of graded generators together
with a terminating normal-form rule assembled from two ingredients:

* per-generator truncations ``g**b = 0``,
* quadratic rewrites ``g**2 -> (terms with exponent of g at most 1)``.

Elements are stored as finite sets of normal-form monomials with implicit
coefficient 1, so addition is symmetric difference and equality of elements
is set equality.  All values are immutable and every operation is pure; two
elements may only be combined when they belong to the *same* presentation
object (there is no implicit coercion between isomorphic rings).

The constructors at the bottom build the specific rings used by the
characteristic-class checks: truncated polynomial rings, the ring with the
quadratic relation ``x**2 = y + t*x``, and two generic extensions (adjoining
a truncated generator, and a projective-bundle extension
``t**2 = w1*t + w2``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, lt, mul
from typing import Iterable, Iterator

__all__ = [
    "RingError",
    "Monomial",
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

# Sentinel bound for generators without a truncation relation.
_NO_BOUND = 1 << 62


class RingError(ValueError):
    """A presentation violation, or an operation mixing distinct rings."""


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
        if not any(self.exps):
            return "1"
        parts = []
        for name, e in zip(self.ring.gen_names, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


class RingPresentation:
    """Generators, degrees and the normal-form rule of one presented ring.

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
        unknown = sorted(set(trunc) - set(self.gen_names))
        if unknown:
            raise RingError(f"truncations for unknown generators {unknown}")
        if any(b < 1 for b in trunc.values()):
            raise RingError("truncation bounds must be >= 1")
        self._bounds = tuple(trunc.get(n, _NO_BOUND) for n in self.gen_names)
        self._rewrites: dict[int, RingElement] = {}
        self._caps = tuple(b - 1 if b != _NO_BOUND else _NO_BOUND for b in self._bounds)
        self.base = base
        self._zero_exps = (0,) * len(self.gen_names)

    # -- element factories --------------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, frozenset())

    def one(self) -> "RingElement":
        return RingElement(self, frozenset({self._zero_exps}))

    def gen(self, name: str) -> "RingElement":
        """The generator as an element (may be 0, e.g. t in F2[t]/(t^1))."""
        i = self._gen_index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.gen_names)))
        return self._element_from([exps])

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

    def _install_rewrite(self, name: str, replacement: "RingElement") -> None:
        """Register g**2 -> replacement; used only by the constructors."""
        i = self._gen_index(name)
        if replacement.ring is not self:
            raise RingError("rewrite replacement from a different ring")
        want = 2 * self.gen_degrees[i]
        for exps in replacement.terms:
            if exps[i] > 1:
                raise RingError("rewrite must lower the generator exponent")
            if _mono_degree(self.gen_degrees, exps) != want:
                raise RingError("rewrite replacement has the wrong degree")
        self._rewrites[i] = replacement
        caps = list(self._caps)
        caps[i] = 1
        self._caps = tuple(caps)

    def _trunc_dead(self, exps: tuple[int, ...]) -> bool:
        return not all(map(lt, exps, self._bounds))

    def _is_normal_mono(self, exps: tuple[int, ...]) -> bool:
        if self._trunc_dead(exps):
            return False
        return all(exps[i] <= 1 for i in self._rewrites)

    def _reduce_mono(self, exps: tuple[int, ...]) -> set[tuple[int, ...]]:
        """Normal form of one raw monomial, as a set of normal monomials.

        Exponents of non-rewrite generators only ever grow while rewriting,
        so a truncation hit can prune a branch before full expansion.
        """
        if self._trunc_dead(exps):
            return set()
        for i, rep in self._rewrites.items():
            if exps[i] >= 2:
                rest = list(exps)
                rest[i] -= 2
                acc: set[tuple[int, ...]] = set()
                for rexps in rep.terms:
                    combined = tuple(map(add, rest, rexps))
                    for t in self._reduce_mono(combined):
                        if t in acc:
                            acc.discard(t)
                        else:
                            acc.add(t)
                return acc
        return {exps}

    def _element_from(self, raw: Iterable[tuple[int, ...]]) -> "RingElement":
        acc: set[tuple[int, ...]] = set()
        for exps in raw:
            for t in self._reduce_mono(exps):
                if t in acc:
                    acc.discard(t)
                else:
                    acc.add(t)
        return RingElement(self, frozenset(acc))

    # -- basis enumeration ----------------------------------------------------

    def basis(self, max_degree: int | None = None) -> Iterator[Monomial]:
        """All normal-form monomials (optionally up to a degree cut-off)."""
        if any(c >= _NO_BOUND for c in self._caps):
            raise RingError(f"{self.name} has no finite monomial basis")
        degs = self.gen_degrees
        for exps in itertools.product(*(range(c + 1) for c in self._caps)):
            if max_degree is not None and _mono_degree(degs, exps) > max_degree:
                continue
            if self._trunc_dead(exps):
                continue
            yield Monomial(self, exps)

    def top_degree(self) -> int:
        """An upper bound for the degree of any nonzero element."""
        if any(c >= _NO_BOUND for c in self._caps):
            raise RingError(f"{self.name} has unbounded degrees")
        return sum(c * d for c, d in zip(self._caps, self.gen_degrees))

    # -- base-ring plumbing ----------------------------------------------------

    def lift_from_base(self, p: "RingElement") -> "RingElement":
        """Image of a base-ring element under the canonical inclusion."""
        if self.base is None or p.ring is not self.base:
            raise RingError("element does not belong to this ring's base")
        pad = len(self.gen_names) - len(self.base.gen_names)
        return self._element_from(exps + (0,) * pad for exps in p.terms)

    def _lower_to_base(self, raw: Iterable[tuple[int, ...]]) -> "RingElement":
        base = self.base
        assert base is not None
        k = len(base.gen_names)
        return base._element_from(t[:k] for t in raw)

    def __repr__(self) -> str:
        return f"<ring {self.name}: {', '.join(self.gen_names)}>"


def _mono_degree(degs: tuple[int, ...], exps: tuple[int, ...]) -> int:
    return sum(map(mul, exps, degs))


class RingElement:
    """A GF(2) sum of normal-form monomials of one presented ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingPresentation, terms: frozenset) -> None:
        self.ring = ring
        self.terms = terms

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
        return RingElement(self.ring, self.terms ^ other.terms)

    def __mul__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        self._check_ring(other)
        ring = self.ring
        acc: set[tuple[int, ...]] = set()
        if ring._rewrites:
            reduce = ring._reduce_mono
            for a in self.terms:
                for b in other.terms:
                    for t in reduce(tuple(map(add, a, b))):
                        if t in acc:
                            acc.discard(t)
                        else:
                            acc.add(t)
        else:
            # No rewrites: a product monomial is either normal or truncated
            # to zero, so the bound test is the whole normal form.
            bounds = ring._bounds
            for a in self.terms:
                for b in other.terms:
                    raw = tuple(map(add, a, b))
                    if not all(map(lt, raw, bounds)):
                        continue
                    if raw in acc:
                        acc.discard(raw)
                    else:
                        acc.add(raw)
        return RingElement(ring, frozenset(acc))

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
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingElement)
            and other.ring is self.ring
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.terms))

    def constant_term(self) -> int:
        return int(self.ring._zero_exps in self.terms)

    def coefficient(self, mono: Monomial) -> int:
        """The GF(2) coefficient of a normal-form monomial (0 or 1)."""
        if mono.ring is not self.ring:
            raise RingError("monomial from a different ring")
        if not self.ring._is_normal_mono(mono.exps):
            raise RingError(f"{mono} is not a normal-form monomial of {self.ring.name}")
        return int(mono.exps in self.terms)

    def homogeneous_part(self, d: int) -> "RingElement":
        degs = self.ring.gen_degrees
        return RingElement(
            self.ring,
            frozenset(t for t in self.terms if _mono_degree(degs, t) == d),
        )

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
        if not self.terms:
            return "0"
        return " + ".join(str(mo) for mo in self.support())

    def __repr__(self) -> str:
        return str(self)


def invert(u: RingElement) -> RingElement:
    """The inverse of a unit ``1 + p`` via the geometric series ``sum p**k``.

    The series terminates because ``p`` has positive-degree support and the
    ring is bounded in degree; a unit is required to have constant term 1.
    """
    ring = u.ring
    if u.constant_term() != 1:
        raise RingError("invert requires constant term 1")
    p = u + ring.one()
    result = ring.one()
    power = ring.one()
    for _ in range(ring.top_degree() + 1):
        power = power * p
        if not power:
            break
        result = result + power
    else:
        raise RingError("geometric series failed to terminate")
    return result


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
    ring = RingPresentation(
        f"Yhat{m}",
        [("t", 1), ("y", 2), ("x", 1)],
        truncations={"t": m + 1, "y": m + 1},
    )
    replacement = RingElement(ring, frozenset({(0, 1, 0), (1, 0, 1)}))  # y + t*x
    ring._install_rewrite("x", replacement)
    return ring


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
    base: RingPresentation, name: str, gen: tuple[str, int], bound: int | None
) -> RingPresentation:
    """A new presentation with one generator appended after the base's."""
    gname = gen[0]
    if gname in base.gen_names:
        raise RingError(f"generator name {gname!r} clashes with the base ring")
    trunc = {
        n: b for n, b in zip(base.gen_names, base._bounds) if b != _NO_BOUND
    }
    if bound is not None:
        trunc[gname] = bound
    ring = RingPresentation(
        name,
        list(zip(base.gen_names, base.gen_degrees)) + [gen],
        truncations=trunc,
        base=base,
    )
    for i, rep in base._rewrites.items():
        ring._install_rewrite(base.gen_names[i], ring.lift_from_base(rep))
    return ring


def ring_adjoin_x(base: RingPresentation, n: int) -> RingPresentation:
    """base ⊗ GF(2)[x]/(x**(n+1)) with a fresh degree-1 generator x."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _extend(base, f"{base.name}[x;{n}]", ("x", 1), n + 1)


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
    ring = _extend(base, f"{base.name}[t|{w1},{w2}]", ("t", 1), None)
    replacement = ring.lift_from_base(w1) * ring.gen("t") + ring.lift_from_base(w2)
    ring._install_rewrite("t", replacement)
    return ring
