"""The quasisymmetric coefficient algebra in the monomial basis.

Elements are finitely supported rational combinations of compositions (the
monomial-basis coordinates), optionally carrying a degree bound: truncated
elements stand in for genuinely infinite power series, and products silently
drop terms beyond the bound.

Also here: the generic construction that replaces the single variable ring by
an arbitrary graded ring with a basis, realizing monomial-type sums inside
tensor powers, with products read back off initial-segment tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod
from operator import add
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .compositions import (
    Composition,
    as_composition,
    overlapping_paddings,
    paddings,
    positive_part,
)
from .errors import (
    GlidekitError,
    InvalidCompositionError,
    LengthMismatchError,
    MalformedInputError,
    NotQuasisymmetricError,
    OutOfRangeError,
    UnknownLabelError,
)
from .glides import glide_m_expansion
from .jsonio import parse_frac, read_json
from .poly import SparsePoly

UNBOUNDED = None

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class QSymElement:
    """Monomial-basis coordinates with an optional degree bound.

    ``degree_bound`` of None means the element is exact (polynomial-like);
    a finite bound D means coordinates of size > D have been discarded and
    the element represents a truncation.
    """

    coords: Mapping[Composition, Fraction]
    degree_bound: int | None = UNBOUNDED

    def __post_init__(self):
        if self.degree_bound is not None and self.degree_bound < 0:
            raise OutOfRangeError(f"degree bound must be >= 0, got {self.degree_bound}")
        clean = {}
        for alpha, c in self.coords.items():
            a = as_composition(alpha)
            cf = c if type(c) is Fraction else Fraction(c)
            if self.degree_bound is not None and sum(a) > self.degree_bound:
                raise OutOfRangeError(
                    f"coordinate {a} exceeds degree bound {self.degree_bound}"
                )
            if cf:
                clean[a] = cf
        object.__setattr__(self, "coords", clean)

    @classmethod
    def _trusted(cls, coords: dict[Composition, Fraction], degree_bound: int | None) -> "QSymElement":
        """Wrap coordinates built inside the package without checking them again.

        The caller guarantees what ``__post_init__`` enforces: every key is a
        composition within the bound and every value a nonzero ``Fraction``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "degree_bound", degree_bound)
        return self

    @classmethod
    def monomial(cls, alpha: Iterable[int], degree_bound: int | None = UNBOUNDED) -> "QSymElement":
        return cls({as_composition(alpha): Fraction(1)}, degree_bound)

    def __add__(self, other: "QSymElement") -> "QSymElement":
        bound = _combined_bound(self.degree_bound, other.degree_bound)
        out = dict(self.coords)
        for a, c in other.coords.items():
            out[a] = out.get(a, _ZERO) + c
        return QSymElement(_truncate(out, bound), bound)

    def scale(self, factor: Fraction | int) -> "QSymElement":
        f = Fraction(factor)
        return QSymElement({a: c * f for a, c in self.coords.items()}, self.degree_bound)


def _combined_bound(b1: int | None, b2: int | None) -> int | None:
    if b1 is None:
        return b2
    if b2 is None:
        return b1
    return min(b1, b2)


def _truncate(coords: dict, bound: int | None) -> dict:
    if bound is None:
        return coords
    return {a: c for a, c in coords.items() if sum(a) <= bound}


def m_to_polynomial(alpha: Iterable[int], n: int) -> SparsePoly:
    """Truncate the monomial quasisymmetric function of alpha to n variables.

    The sum over strictly increasing placements; zero when alpha is longer
    than the variable count.
    """
    return SparsePoly._trusted(n, dict.fromkeys(paddings(as_composition(alpha), n), _ONE))


def read_m_coords(
    f: SparsePoly, n: int
) -> tuple[dict[Composition, Fraction], Composition | None]:
    """Group the terms of f by positive part, in first-seen order, in one pass.

    Returns the groups as monomial-basis coordinates together with the first
    composition whose group fails, or None when f is quasisymmetric.  A group
    passes when it holds exactly the C(n, len(gamma)) placements of its
    composition gamma, all with one coefficient.
    """
    if f.nvars != n:
        raise LengthMismatchError(f"polynomial has {f.nvars} variables, expected {n}")
    coords: dict[Composition, Fraction] = {}
    placements: dict[Composition, int] = {}
    for exps, c in f.terms.items():
        gamma = positive_part(exps)
        first = coords.setdefault(gamma, c)
        if first is not c and first != c:
            return coords, gamma
        placements[gamma] = placements.get(gamma, 0) + 1
    for gamma, count in placements.items():
        if count != comb(n, len(gamma)):
            return coords, gamma
    return coords, None


def polynomial_to_m(f: SparsePoly, n: int) -> QSymElement:
    """Read monomial-basis coordinates off a quasisymmetric polynomial.

    The coordinate of a composition is the coefficient shared by all its
    placements; raises if some placement of a composition carries a
    different coefficient (the input was not quasisymmetric).
    """
    coords, failed = read_m_coords(f, n)
    if failed is not None:
        raise NotQuasisymmetricError(
            f"the {comb(n, len(failed))} placements of {failed} "
            f"do not all carry one coefficient"
        )
    # the keys are the positive parts of f's exponent vectors, so only a
    # negative exponent keeps one from being a composition; the values are
    # coefficients of f, hence nonzero Fractions
    bad = next((gamma for gamma in coords if min(gamma, default=1) < 1), None)
    if bad is not None:
        raise InvalidCompositionError(f"composition parts must be >= 1: {bad}")
    return QSymElement._trusted(coords, UNBOUNDED)


def overlapping_shuffle(alpha: Iterable[int], beta: Iterable[int]) -> dict[Composition, int]:
    """Multiplicities of the overlapping shuffle product of two compositions.

    Sums over surjections that are strictly order preserving on each side:
    each side keeps its order, and a slot hit from both sides adds the two
    parts.
    """
    a, b = as_composition(alpha), as_composition(beta)
    out: dict[Composition, int] = {}
    for k in range(max(len(a), len(b)), len(a) + len(b) + 1):
        for l, r in overlapping_paddings(a, b, k):
            gamma = tuple(map(add, l, r))
            out[gamma] = out.get(gamma, 0) + 1
    return out


def m_multiply(f: QSymElement, g: QSymElement) -> QSymElement:
    """Bilinear extension of the overlapping shuffle to monomial coordinates."""
    bound = _combined_bound(f.degree_bound, g.degree_bound)
    out: dict[Composition, Fraction] = {}
    for a, ca in f.coords.items():
        for b, cb in g.coords.items():
            if bound is not None and sum(a) + sum(b) > bound:
                continue
            c = ca * cb
            for gamma, mult in overlapping_shuffle(a, b).items():
                out[gamma] = out.get(gamma, _ZERO) + mult * c
    return QSymElement(_truncate(out, bound), bound)


def glide_element(alpha: Iterable[int], degree_bound: int) -> QSymElement:
    """The glide of alpha as truncated monomial-basis coordinates."""
    a = as_composition(alpha)
    return QSymElement(
        {g: Fraction(c) for g, c in glide_m_expansion(a, degree_bound).items()},
        degree_bound,
    )


def glide_expand(f: QSymElement, degree_bound: int) -> dict[Composition, Fraction]:
    """Expand monomial coordinates over the glide basis up to a degree bound.

    Strictly triangular: each glide equals its indexing monomial plus higher
    degree terms, so repeatedly peeling the lowest homogeneous layer
    terminates once the residual passes the bound.

    The input must carry the intended coordinates faithfully up to the bound.
    Coordinates read off an n-variable polynomial are faithful up to degree n
    (a composition of larger degree can be longer than n and hence invisible
    in n variables); beyond that window the expansion describes the
    truncation, not the power series it came from.
    """
    coords: dict[Composition, Fraction] = {}
    residual = {a: c for a, c in f.coords.items() if sum(a) <= degree_bound}
    while residual:
        d = min(sum(a) for a in residual)
        layer = {a: c for a, c in residual.items() if sum(a) == d}
        for a, c in layer.items():
            coords[a] = c
            for g, gc in glide_m_expansion(a, degree_bound).items():
                v = residual.get(g, _ZERO) - c * gc
                if v:
                    residual[g] = v
                else:
                    residual.pop(g, None)
    return coords


def glide_structure_constants(
    alpha: Iterable[int], beta: Iterable[int], degree_bound: int
) -> dict[Composition, Fraction]:
    """Glide-basis coordinates of a product of two glides, up to a degree bound."""
    fa = glide_element(alpha, degree_bound)
    fb = glide_element(beta, degree_bound)
    return glide_expand(m_multiply(fa, fb), degree_bound)


Label = Hashable


@dataclass(frozen=True)
class GradedRingData:
    """A graded ring with basis, given by its unit, degrees and structure constants.

    ``multiply`` maps a pair of non-unit basis labels to a finitely supported
    label -> Fraction mapping; the unit is handled here.  ``contains`` tests
    label validity, so rings with infinitely many basis labels (one generator
    per degree, the tableau rings) can be given lazily.  The tensor engine
    takes only labels of positive degree, and checks each one it is given.
    """

    unit: Label
    degree: Callable[[Label], int]
    multiply: Callable[[Label, Label], Mapping[Label, Fraction]]
    contains: Callable[[Label], bool]

    def product(self, a: Label, b: Label) -> dict[Label, Fraction]:
        if a == self.unit:
            return {b: _ONE}
        if b == self.unit:
            return {a: _ONE}
        return {l: Fraction(c) for l, c in self.multiply(a, b).items() if c}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GradedRingData":
        """Build from the JSON schema {basis, constants, counit, unit}.

        Labels are strings.  Every label other than the unit must have
        positive degree, which the tensor engine relies on.  Structure
        constants are validated against the grading.  The optional counit
        names basis labels only, with 1 on the unit and 0 elsewhere (a graded
        map to the ground ring concentrated in degree zero admits nothing
        else).  A broken rule raises ``UnknownLabelError``, data of the wrong
        shape ``MalformedInputError``.
        """
        try:
            degrees = {entry["label"]: int(entry["degree"]) for entry in data["basis"]}
            unit = data.get("unit")
            if unit is None:
                zero_labels = [l for l, d in degrees.items() if d == 0]
                if len(zero_labels) != 1:
                    raise UnknownLabelError(
                        f"expected exactly one degree-0 unit label, found {zero_labels}"
                    )
                unit = zero_labels[0]
            if degrees.get(unit) != 0:
                raise UnknownLabelError(f"unit label {unit!r} must have degree 0")
            nonpositive = [l for l, d in degrees.items() if d <= 0 and l != unit]
            if nonpositive:
                raise UnknownLabelError(
                    f"labels other than the unit must have positive degree: {nonpositive}"
                )
            constants: dict[tuple[str, str], dict[str, Fraction]] = {}
            for left, rights in data.get("constants", {}).items():
                for right, terms in rights.items():
                    if left not in degrees or right not in degrees:
                        raise UnknownLabelError(f"constants multiply unknown {left!r}*{right!r}")
                    expansion = {}
                    for label, coeff in terms.items():
                        c = parse_frac(coeff)
                        if not c:
                            continue
                        if label not in degrees:
                            raise UnknownLabelError(f"constants mention unknown label {label!r}")
                        if degrees[label] != degrees[left] + degrees[right]:
                            raise UnknownLabelError(
                                f"product {left!r}*{right!r} -> {label!r} violates the grading"
                            )
                        expansion[label] = c
                    constants[(left, right)] = expansion
            for label, value in data.get("counit", {}).items():
                if label not in degrees or parse_frac(value) != int(label == unit):
                    raise UnknownLabelError(
                        f"counit must be 1 on the unit and 0 on other basis labels, "
                        f"not {value!r} on {label!r}"
                    )
        except GlidekitError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"malformed ring data: {exc!r}") from exc

        def multiply(a: str, b: str) -> Mapping[str, Fraction]:
            if (a, b) in constants:
                return constants[(a, b)]
            if (b, a) in constants:
                return constants[(b, a)]
            return {}

        return cls(
            unit=unit,
            degree=lambda l: degrees[l],
            multiply=multiply,
            contains=lambda l: l in degrees,
        )

    @classmethod
    def from_json_file(cls, path) -> "GradedRingData":
        return cls.from_dict(read_json(path))


def cpinf_ring() -> GradedRingData:
    """One basis generator per positive degree, multiplying by degree addition.

    The basis label a stands for the a-th power of a single generator; with
    this ring the generic product reproduces the overlapping shuffle on
    ordinary compositions exactly.
    """
    return GradedRingData(
        unit=0,
        degree=lambda a: a,
        multiply=lambda a, b: {a + b: _ONE},
        contains=lambda a: type(a) is int and a >= 0,
    )


LabelTuple = tuple[Label, ...]


def _validate_label_tuple(labels: Iterable[Label], ring: GradedRingData) -> LabelTuple:
    out = tuple(labels)
    for l in out:
        if not ring.contains(l) or ring.degree(l) <= 0:
            raise UnknownLabelError(f"not a basis label of positive degree: {l!r}")
    return out


def _slot_product(
    slots: Sequence[Mapping[Label, Fraction]], scale: Fraction
) -> Iterator[tuple[LabelTuple, Fraction]]:
    """Expand a product of one sparse sum per slot into label tuples.

    Each choice of one item per slot gives the tuple of the chosen labels,
    weighted by ``scale`` times the chosen coefficients; the choices come
    with the first slot outermost, and an empty slot gives none.
    """
    for choice in product(*[slot.items() for slot in slots]):
        yield tuple(l for l, _ in choice), prod((c for _, c in choice), start=scale)


def qsym_r_product(
    theta: Iterable[Label],
    kappa: Iterable[Label],
    ring: GradedRingData,
    n: int,
) -> dict[LabelTuple, Fraction]:
    """Expand a product of two monomial-type sums over label tuples.

    Both factors are realized inside the n-fold tensor power as sums over
    their paddings with the unit; the product is read off the
    initial-segment pure tensors (non-unit labels packed at the front),
    which pick out each basis element exactly once.  Only the pairs of
    paddings that reach such a tensor are multiplied.
    """
    t = _validate_label_tuple(theta, ring)
    k = _validate_label_tuple(kappa, ring)
    if len(t) + len(k) > n:
        raise OutOfRangeError(
            f"need n >= {len(t) + len(k)} tensor factors, got {n}"
        )
    unit = ring.unit
    out: dict[LabelTuple, Fraction] = {}
    for k1 in paddings(t, n, unit):
        for k2 in paddings(k, n, unit):
            # labels in t and k have positive degree (``_validate_label_tuple``
            # checks it), so their graded products never hold the unit:
            # a pair's tensors are non-unit exactly on the slots hit from
            # either side, and an initial segment needs those to come first
            hit = [a != unit or b != unit for a, b in zip(k1, k2)]
            length = hit.count(True)
            if any(hit[length:]):
                continue
            slots = [ring.product(a, b) for a, b in zip(k1[:length], k2[:length])]
            for key, c in _slot_product(slots, _ONE):
                v = out.get(key, _ZERO) + c
                if v:
                    out[key] = v
                else:
                    del out[key]
    return out


def qsym_r_product_shuffle(
    theta: Iterable[Label],
    kappa: Iterable[Label],
    ring: GradedRingData,
) -> dict[LabelTuple, Fraction]:
    """Cross-check route: overlapping shuffle of label tuples with collisions
    resolved through the ring's structure constants."""
    t = _validate_label_tuple(theta, ring)
    k = _validate_label_tuple(kappa, ring)
    out: dict[LabelTuple, Fraction] = {}
    for length in range(max(len(t), len(k)), len(t) + len(k) + 1):
        for l, r in overlapping_paddings(t, k, length, ring.unit):
            slots = [ring.product(x, y) for x, y in zip(l, r)]
            for key, c in _slot_product(slots, _ONE):
                v = out.get(key, _ZERO) + c
                if v:
                    out[key] = v
                else:
                    del out[key]
    return out
