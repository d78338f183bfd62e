"""The quasisymmetric coefficient algebra in the monomial basis.

Elements are finitely supported rational combinations of compositions (the
monomial-basis coordinates), optionally carrying a degree bound: truncated
elements stand in for genuinely infinite power series, and products silently
drop terms beyond the bound.

Also here: the generic construction that replaces the single variable ring by
an arbitrary graded ring with a basis, realizing monomial-type sums inside
tensor powers, with products read back off initial-segment tensors.

Every product here runs as ``poly``'s do: the sums are plain ints, integer
numerators over one common denominator, and the Fractions are built at the
end by ``poly._fractions``: one per distinct numerator, made on its first
lookup from one gcd with ``Fraction``'s two slots written directly.
"""

from __future__ import annotations

from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, compress, islice, product
from math import comb, lcm, prod
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Mapping

from .compositions import (
    Composition,
    _container,
    _exact,
    _instance,
    _kernel,
    _size,
    as_composition,
    overlapping_paddings,
    paddings,
)
from .errors import (
    GlidekitError,
    LengthMismatchError,
    MalformedInputError,
    NotQuasisymmetricError,
    OutOfRangeError,
    UnknownLabelError,
)
from .glides import _inflations, glide_m_expansion
from .jsonio import parse_frac, read_json
from .poly import SparsePoly, _BoxTerms, _fractions, _integer_numerators

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

    coords: Mapping[Composition, Fraction]  # read-only
    degree_bound: int | None = UNBOUNDED

    def __post_init__(self):
        if self.degree_bound is not None:
            _size(self.degree_bound, 0, "degree bound")
        clean = {}
        for alpha, c in _container(self.coords, "coords", items=True):
            a = as_composition(alpha)
            cf = _exact(c, "coefficient")
            if self.degree_bound is not None and sum(a) > self.degree_bound:
                raise OutOfRangeError(f"coordinate {a} exceeds degree bound {self.degree_bound}")
            if cf:
                clean[a] = cf
        object.__setattr__(self, "coords", MappingProxyType(clean))

    @classmethod
    def _trusted(cls, coords: dict[Composition, Fraction], degree_bound: int | None) -> "QSymElement":
        """Wrap coordinates built inside the package without checking them again.

        The caller guarantees what ``__post_init__`` enforces: every key is a
        composition within the bound and every value a nonzero ``Fraction``
        (``__post_init__`` also takes int coefficients).  The element holds
        a read-only view of ``coords``, which no one else may change.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "coords", MappingProxyType(coords))
        object.__setattr__(self, "degree_bound", degree_bound)
        return self

    # as ``SparsePoly`` hashes its terms: the hash the dataclass would
    # build takes the coords view itself, which has none
    def __hash__(self) -> int:
        return hash((frozenset(self.coords.items()), self.degree_bound))

    # as ``SparsePoly``: the coords view cannot be pickled, so pickle and
    # copy rebuild through the checked constructor
    def __reduce__(self):
        return QSymElement, (self.coords.copy(), self.degree_bound)

    @classmethod
    def monomial(cls, alpha: Iterable[int], degree_bound: int | None = UNBOUNDED) -> "QSymElement":
        return cls({as_composition(alpha): Fraction(1)}, degree_bound)

    def __add__(self, other: "QSymElement") -> "QSymElement":
        _instance(other, QSymElement, "other")
        bound = _combined_bound(self.degree_bound, other.degree_bound)
        # ``dict(view)`` copies key by key; ``copy`` copies the table whole
        out = self.coords.copy()
        for a, c in other.coords.items():
            out[a] = out.get(a, _ZERO) + c
        return QSymElement(_truncate(out, bound), bound)

    def scale(self, factor: Fraction | int) -> "QSymElement":
        f = _exact(factor, "factor")
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
    a = as_composition(alpha)
    return SparsePoly._trusted(_size(n, 0, "n"), dict.fromkeys(paddings(a, n), _ONE))


def _checked_box(f: SparsePoly, n: int) -> _BoxTerms | None:
    """The slice check: f's terms if they are a box view (``_BoxTerms``)
    and f is quasisymmetric, else None; ``n`` must be f's variable count.

    The box holds f's integer numerators over one denominator at the
    exponent vectors whose entries lie in V, the base-|V| digits of an
    index being the positions of e_1, ..., e_n in V; f's terms are its
    nonzero entries, in index order.  Moving a 0 past a part keeps the
    positive part, and such moves join any two placements of a
    composition, so f is quasisymmetric exactly when
    A[..., 0, v, ...] = A[..., v, 0, ...] on each adjacent pair of axes.
    For the pair (i, i + 1) the two sides are blocks of |V|^(n - i - 2)
    entries after each of the |V|^i prefixes, compared block by block, or
    as strided slices when the prefixes are the more numerous.  A box of
    64-bit words (``array("q")``) compares its slices as memory, a list of
    ints entry by entry.

    The verdict is kept in the view, so the slices are compared once per
    image: a later check answers from it.
    """
    if _instance(f, SparsePoly, "f").nvars != _size(n, 0, "n"):
        raise LengthMismatchError(f"polynomial has {f.nvars} variables, expected {n}")
    view = f.terms
    if type(view) is not _BoxTerms:
        return None
    if view._quasisymmetric is not None:
        return view if view._quasisymmetric else None
    box, b = view._numerators, len(view._exponents)
    for i in range(n - 1):
        outer = b ** (n - i)
        inner = outer // b // b
        for v in range(1, b):
            # the blocks (0, v) and (v, 0) start here after a prefix
            left, right = v * inner, v * b * inner
            if b**i <= inner:
                for p in range(0, len(box), outer):
                    if box[p + left : p + left + inner] != box[p + right : p + right + inner]:
                        view._quasisymmetric = False
                        return None
            else:
                for t in range(inner):
                    if box[left + t :: outer] != box[right + t :: outer]:
                        view._quasisymmetric = False
                        return None
    view._quasisymmetric = True
    return view


def _read_box(view: _BoxTerms) -> dict[Composition, Fraction]:
    """The box reader: the coordinates of a polynomial whose box has passed
    the check, read at the placements (0, ..., 0, gamma), the indices whose
    digits are some 0s followed by no 0; in index order they come by
    length, then in lexicographic order.  Each coefficient is the
    placement's numerator over the box's denominator, built by
    ``poly._fractions`` as the view's terms are (they are not read): each
    distinct numerator's Fraction on its first lookup, one gcd and two
    slot writes, with no pass over the placements before it.
    """
    n, values = view._nvars, view._exponents
    b = len(values)
    # over k digits, tails[i] is 1 when i's digits are 0s then no 0, and
    # full[i] when no digit of i is 0; bytes, one byte an entry where a
    # list holds a pointer, as ``compress`` takes any selector
    tails = full = b"\x01"
    for _ in range(n):
        tails, full = tails + full * (b - 1), bytes(len(full)) + full * (b - 1)
    # the entries at the placements: the nonzero ones pick the compositions
    # and give the coefficients
    placed = list(compress(view._numerators, tails))
    gammas = chain.from_iterable(product(values[1:], repeat=k) for k in range(n + 1))
    return dict(zip(compress(gammas, placed), _fractions(placed, view._over)))


def _group_by_positive_part(
    f: SparsePoly, n: int
) -> tuple[dict[Composition, Fraction], Composition | None]:
    """The grouping reader: group the terms by positive part, in first-seen
    order.  A group passes when it holds exactly the C(n, len(gamma))
    placements of its composition gamma, all with one coefficient.

    The positive parts are built at C level, one per term.  One pass in term
    order checks each coefficient against the first of its group, and stops
    at the first that differs; then a ``Counter`` of the positive parts is
    compared, group by group in first-seen order, with C(n, k) for the
    group's length k.
    """
    # each exponent vector's positive_part, without a Python call per term
    gammas = list(map(tuple, map(partial(filter, None), f.terms)))
    coords: dict[Composition, Fraction] = {}
    setdefault = coords.setdefault
    for gamma, c in zip(gammas, f.terms.values()):
        first = setdefault(gamma, c)
        if first is not c and first != c:
            return coords, gamma
    placements = [comb(n, k) for k in range(n + 1)]
    for gamma, count in Counter(gammas).items():
        if count != placements[len(gamma)]:
            return coords, gamma
    return coords, None


def polynomial_to_m(f: SparsePoly, n: int) -> QSymElement:
    """Read monomial-basis coordinates off a quasisymmetric polynomial.

    The coordinate of a composition is the coefficient shared by all its
    placements; raises if some placement of a composition carries a
    different coefficient (the input was not quasisymmetric).  When f's
    terms are in lexicographic order, as a Chern image's are, the
    coordinates come by length, then in lexicographic order.

    Two readers share nothing.  A Chern image carries the dense box it was
    computed on: ``_checked_box`` checks it, which is all that
    ``is_quasisymmetric`` runs on it, and ``_read_box`` reads a box that
    passes.  Every other polynomial, and a box that fails the check, goes
    to ``_group_by_positive_part``, which also names the failing
    composition.  The slice check's verdict is kept in the box view, so a
    Chern image already checked by ``is_quasisymmetric`` is not checked
    again; no coordinates are kept between calls.
    """
    view = _checked_box(f, n)
    if view is not None:
        coords = _read_box(view)
    else:
        coords, failed = _group_by_positive_part(f, n)
        if failed is not None:
            raise NotQuasisymmetricError(
                f"the {comb(n, len(failed))} placements of {failed} "
                f"do not all carry one coefficient"
            )
    # keys are positive parts of nonnegative exponent vectors: compositions
    return QSymElement._trusted(coords, UNBOUNDED)


def overlapping_shuffle(alpha: Iterable[int], beta: Iterable[int]) -> dict[Composition, int]:
    """Multiplicities of the overlapping shuffle product of two compositions.

    Sums over surjections that are strictly order preserving on each side:
    each side keeps its order, and a slot hit from both sides adds the two
    parts.  The table is cached and shared; the dict returned is a fresh
    copy, in the recursion's key order.
    """
    return _overlapping_shuffle(as_composition(alpha), as_composition(beta)).copy()


@_kernel(2048, 256)
def _overlapping_shuffle(a: Composition, b: Composition) -> Mapping[Composition, int]:
    """``overlapping_shuffle`` on validated compositions, read-only.

    Counted by the quasi-shuffle recursion on the first parts,
    x·u ⋆ y·v = x(u ⋆ y·v) + y(x·u ⋆ v) + (x+y)(u ⋆ v) (Hoffman, 2000),
    over the suffix pairs of a and b, one row of suffixes of a at a time,
    so no placement is listed and nothing recurses.
    """
    m, n = len(a), len(b)
    # below[j] is a[i + 1:] ⋆ b[j:] while row i is filled, from the right
    below: list[dict[Composition, int]] = [{b[j:]: 1} for j in range(n + 1)]
    for i in range(m - 1, -1, -1):
        x = a[i]
        first = (x,)
        row: list[dict[Composition, int]] = [{}] * n + [{a[i:]: 1}]
        for j in range(n - 1, -1, -1):
            y = b[j]
            out = {first + g: c for g, c in below[j].items()}
            # parts are positive, so x + y starts no other term, and y
            # starts an x term only when y = x
            if y == x:
                for g, c in row[j + 1].items():
                    key = first + g
                    out[key] = out.get(key, 0) + c
            else:
                out.update({(y,) + g: c for g, c in row[j + 1].items()})
            out.update({(x + y,) + g: c for g, c in below[j + 1].items()})
            row[j] = out
        below = row
    return MappingProxyType(below[0])


def m_multiply(f: QSymElement, g: QSymElement) -> QSymElement:
    """Bilinear extension of the overlapping shuffle to monomial coordinates."""
    _instance(f, QSymElement, "f")
    _instance(g, QSymElement, "g")
    bound = _combined_bound(f.degree_bound, g.degree_bound)
    # the sums run on integer numerators over d1 * d2
    left, d1 = _integer_numerators(f.coords)
    right, d2 = _integer_numerators(g.coords)
    out: dict[Composition, int] = {}
    for a, ca in left:
        for b, cb in right:
            if bound is not None and sum(a) + sum(b) > bound:
                continue
            c = ca * cb
            # the coordinates are compositions already, so the shared table
            # is read as it is
            for gamma, mult in _overlapping_shuffle(a, b).items():
                out[gamma] = out.get(gamma, 0) + mult * c
    # every pair over the bound was skipped, and the shuffle keeps the size;
    # a sum of 0 kept its place in the loop and is dropped only here
    numerators = list(out.values())
    coords = dict(zip(compress(out, numerators), _fractions(numerators, d1 * d2)))
    return QSymElement._trusted(coords, bound)


def glide_element(alpha: Iterable[int], degree_bound: int) -> QSymElement:
    """The glide of alpha as truncated monomial-basis coordinates.

    The element is cached and shared by every caller; its coordinates are
    read-only, as every element's are.
    """
    bound = _size(degree_bound, 0, "degree bound")
    return _glide_element(as_composition(alpha), bound)


# counted by its coordinates: a ``len`` would change an element's truth value
@_kernel(1024, 256, lambda element: len(element.coords))
def _glide_element(alpha: Composition, degree_bound: int) -> QSymElement:
    """``glide_element`` on a validated composition and bound, one Fraction
    per distinct coefficient."""
    expansion = glide_m_expansion(alpha, degree_bound)
    coefficients = list(expansion.values())
    coords = dict(zip(compress(expansion, coefficients), _fractions(coefficients, 1)))
    return QSymElement._trusted(coords, degree_bound)


def glide_expand(f: QSymElement, degree_bound: int) -> dict[Composition, Fraction]:
    """Expand monomial coordinates over the glide basis up to a degree bound.

    Strictly triangular: each glide equals its indexing monomial plus higher
    degree terms, so repeatedly peeling the lowest homogeneous layer
    terminates once the residual passes the bound.

    The bound may not exceed the element's own bound, above which its
    coordinates were dropped, not zeroed.  The input must carry the intended
    coordinates faithfully up to the bound.  Coordinates read off an
    n-variable polynomial are faithful up to degree n (a composition of
    larger degree can be longer than n and hence invisible in n variables);
    beyond that window the expansion describes the truncation, not the power
    series it came from.
    """
    _instance(f, QSymElement, "f")
    _size(degree_bound, 0, "degree bound")
    if f.degree_bound is not None:
        _size(f.degree_bound, degree_bound, "the element's degree bound")
    return _peel(f.coords, degree_bound)


def _peel(
    coords: Mapping[Composition, Fraction], degree_bound: int
) -> dict[Composition, Fraction]:
    """``glide_expand`` on checked coordinates: the glide coordinates, the
    peeled layers in increasing size, each in the order its residual keys
    came.

    The residual is kept as one dict per size, keyed by the sizes present,
    and the smallest is peeled next.  Each peeled composition a subtracts
    its cached inflations, integer pairs; the first is a itself with
    coefficient 1, which only clears a's own place, and every other is
    larger.
    """
    # the glide coordinates are ints, so the peeling runs on integer
    # numerators over the one denominator of the kept coordinates
    kept, denominator = _integer_numerators(
        {a: c for a, c in coords.items() if sum(a) <= degree_bound}
    )
    layers: dict[int, dict[Composition, int]] = {}
    for a, c in kept:
        layers.setdefault(sum(a), {})[a] = c
    out: dict[Composition, int] = {}
    while layers:
        for a, c in layers.pop(min(layers)).items():
            out[a] = c
            for g, gc in islice(_inflations(a, degree_bound, degree_bound), 1, None):
                residual = layers.setdefault(sum(g), {})
                v = residual.get(g, 0) - c * gc
                if v:
                    residual[g] = v
                else:
                    residual.pop(g, None)
    # every peeled coefficient is a nonzero residual
    return dict(zip(out, _fractions(out.values(), denominator)))


def glide_structure_constants(
    alpha: Iterable[int], beta: Iterable[int], degree_bound: int
) -> dict[Composition, Fraction]:
    """Glide-basis coordinates of a product of two glides, up to a degree bound.

    The table is cached and shared; the dict returned is a fresh copy.
    """
    bound = _size(degree_bound, 0, "degree bound")
    return _glide_constants(as_composition(alpha), as_composition(beta), bound).copy()


@_kernel(4096, 256)
def _glide_constants(
    alpha: Composition, beta: Composition, degree_bound: int
) -> Mapping[Composition, Fraction]:
    """``glide_structure_constants`` on validated arguments, read-only."""
    product = m_multiply(_glide_element(alpha, degree_bound), _glide_element(beta, degree_bound))
    return MappingProxyType(_peel(product.coords, degree_bound))


Label = Hashable


@dataclass(frozen=True)
class GradedRingData:
    """A graded ring with basis, given by its unit, degrees and structure constants.

    ``multiply`` maps a pair of non-unit basis labels to a finitely supported
    label -> int or Fraction mapping, which callers only read; ``product``
    checks each coefficient and handles the unit.  ``contains`` says lazily
    what a label is, as a ring may have infinitely many; ``product`` and the
    tensor engine refuse any other label, and the engine any of degree 0 or
    less.  ``degree``, ``multiply`` and ``contains`` must be callable and the
    unit a label of degree 0, which the ring checks when it is built.

    A ring is compared and hashed by its four fields, each of which must be
    hashable, and the tensor engine keeps its expansions keyed by the ring.
    So the three functions must be pure: the same arguments give the same
    answer on every call.  Labels that compare equal are one label, as they
    are to the engine's own dicts.  A ``from_dict`` ring's functions compare
    by its tables, so two loads of equal data are one ring.
    """

    unit: Label
    degree: Callable[[Label], int]
    multiply: Callable[[Label, Label], Mapping[Label, Fraction]]
    contains: Callable[[Label], bool]

    def __post_init__(self):
        for name in ("degree", "multiply", "contains"):
            value = getattr(self, name)
            if not callable(value):
                kind = type(value).__name__
                raise MalformedInputError(f"ring {name} must be callable, got {kind}")
        if self.degree(self._label(self.unit)) != 0:
            raise UnknownLabelError(f"the unit {self.unit!r} must have degree 0")
        try:
            hash(self)
        except TypeError as exc:
            raise MalformedInputError(f"ring fields must be hashable: {exc}") from exc

    def _label(self, label: Label) -> Label:
        # a label that ``contains`` cannot even test is no label of the ring
        with suppress(AttributeError, TypeError):
            if self.contains(label):
                return label
        raise UnknownLabelError(f"not a label of the ring: {label!r}")

    def product(self, a: Label, b: Label) -> dict[Label, Fraction]:
        return self._product(self._label(a), self._label(b))

    def _product(self, a: Label, b: Label) -> dict[Label, Fraction]:
        """``product`` of two labels already checked, for the tensor routes."""
        if a == self.unit:
            return {b: _ONE}
        if b == self.unit:
            return {a: _ONE}
        try:
            terms = self.multiply(a, b).items()
        except (AttributeError, TypeError) as exc:
            raise MalformedInputError(f"the ring cannot multiply {a!r} by {b!r}: {exc}") from exc
        return {l: q for l, c in terms if (q := _exact(c, "structure constant"))}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GradedRingData":
        """Build from the JSON schema {basis, constants, counit, unit}.

        Labels are strings.  Every label other than the unit must have
        positive degree, which the tensor engine relies on.  Structure
        constants are validated against the grading; every label they name,
        a zero coefficient's too, must be in the basis, and an entry with the
        unit as a factor must give the other factor with coefficient 1, since
        ``product`` answers such a product itself.  The optional counit
        names basis labels only, with 1 on the unit and 0 elsewhere (a graded
        map to the ground ring concentrated in degree zero admits nothing
        else).  A broken rule raises ``UnknownLabelError``, data of the wrong
        shape ``MalformedInputError``: among others a label that is not a
        string, a degree that is not a JSON integer, or a label listed twice
        in the basis.

        The ring's functions are frozen tables (``_Table``), compared and
        hashed by their items in load order: loading the same data again
        gives an equal ring, which the tensor engine's cache serves.
        """
        try:
            degrees: dict[str, int] = {}
            for entry in data["basis"]:
                label, degree = entry["label"], entry["degree"]
                if type(label) is not str:
                    raise MalformedInputError(f"basis label is not a string: {label!r}")
                if type(degree) is not int:
                    raise MalformedInputError(f"degree of {label!r} is not an integer: {degree!r}")
                if label in degrees:
                    raise MalformedInputError(f"basis label {label!r} is listed twice")
                degrees[label] = degree
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
                        if label not in degrees:
                            raise UnknownLabelError(f"constants mention unknown label {label!r}")
                        c = parse_frac(coeff)
                        if not c:
                            continue
                        if degrees[label] != degrees[left] + degrees[right]:
                            raise UnknownLabelError(
                                f"product {left!r}*{right!r} -> {label!r} violates the grading"
                            )
                        expansion[label] = c
                    # ``product`` answers a unit factor itself, never from here
                    if unit in (left, right) and expansion != {right if left == unit else left: 1}:
                        raise UnknownLabelError(
                            f"constants for {left!r}*{right!r} must give the other factor "
                            "with coefficient 1, as the unit does"
                        )
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

        return cls(
            unit=unit,
            degree=_TableDegree(tuple(degrees.items())),
            multiply=_TableProduct(tuple((k, tuple(v.items())) for k, v in constants.items())),
            contains=_TableLabel(tuple(degrees.items())),
        )

    @classmethod
    def from_json_file(cls, path) -> "GradedRingData":
        return cls.from_dict(read_json(path))


@dataclass(frozen=True)
class _Table:
    """A ``from_dict`` ring's function over one of its tables.

    The table is kept as its items in the order they were loaded, and the
    function compares and hashes by them, so two loads of equal data make
    one ring, which the tensor engine's cache serves, and different tables
    make different rings.  The dict built from the items serves the calls
    and takes no part; tuples and dicts, so the ring pickles.
    """

    items: tuple
    lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lookup", dict(self.items))


class _TableDegree(_Table):
    """A loaded ring's ``degree``, over its (label, degree) items."""

    def __call__(self, label: str) -> int:
        return self.lookup[label]


class _TableLabel(_Table):
    """A loaded ring's ``contains``, over its (label, degree) items."""

    def __call__(self, label: object) -> bool:
        return type(label) is str and label in self.lookup


class _TableProduct(_Table):
    """A loaded ring's ``multiply``, over its ((left, right), terms) items,
    each terms a tuple of (label, Fraction) items."""

    def __post_init__(self):
        object.__setattr__(self, "lookup", {pair: dict(terms) for pair, terms in self.items})

    def __call__(self, a: str, b: str) -> Mapping[str, Fraction]:
        terms = self.lookup.get((a, b))
        if terms is None:
            terms = self.lookup.get((b, a), {})
        return MappingProxyType(terms)


def cpinf_ring() -> GradedRingData:
    """One basis generator per positive degree, multiplying by degree addition.

    The basis label a stands for the a-th power of a single generator; with
    this ring the generic product reproduces the overlapping shuffle on
    ordinary compositions exactly.  Every call returns the one shared ring.
    """
    return _CPINF_RING


def _cpinf_degree(a: int) -> int:
    return a


def _cpinf_product(a: int, b: int) -> Mapping[int, Fraction]:
    return {a + b: _ONE}


def _is_cpinf_label(a: object) -> bool:
    return type(a) is int and a >= 0


_CPINF_RING = GradedRingData(
    unit=0, degree=_cpinf_degree, multiply=_cpinf_product, contains=_is_cpinf_label
)


LabelTuple = tuple[Label, ...]


def _validate_label_tuple(labels: Iterable[Label], ring: GradedRingData) -> LabelTuple:
    _instance(ring, GradedRingData, "ring")
    out = tuple(_container(labels, "labels"))
    for l in out:
        if ring.degree(ring._label(l)) <= 0:
            raise UnknownLabelError(f"not a label of positive degree: {l!r}")
    return out


def _slot_products(
    pairs: list[list[Mapping[Label, Fraction]]], n: int
) -> dict[LabelTuple, Fraction]:
    """The sum over ``pairs`` of the product of one sparse sum per slot,
    for pairs of at most n slots.

    A slot maps labels to their coefficients.  Each choice of one item per
    slot of a pair gives the tuple of the chosen labels, weighted by the
    product of the chosen coefficients; the choices come with the first
    slot outermost, and an empty slot gives none.  A key whose sum is 0 is
    dropped where it falls to 0.

    The sums run on integer numerators over L^n, L the lcm of the
    denominators of every slot's coefficients: a pair of j slots is
    weighted by L^(n - j).  Each distinct slot mapping is scaled to those
    numerators once, however many pairs hold it.
    """
    distinct = {id(slot): slot for slots in pairs for slot in slots}
    d = lcm(*{c.denominator for slot in distinct.values() for c in slot.values()})
    scaled = {key: _integer_numerators(slot, d)[0] for key, slot in distinct.items()}
    out: dict[LabelTuple, int] = {}
    for slots in pairs:
        weight = d ** (n - len(slots))
        for choice in product(*[scaled[id(slot)] for slot in slots]):
            key = tuple(l for l, _ in choice)
            v = out.get(key, 0) + prod((c for _, c in choice), start=weight)
            if v:
                out[key] = v
            else:
                del out[key]
    return dict(zip(out, _fractions(out.values(), d**n)))


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
    paddings that reach such a tensor are multiplied, each over the slots
    it hits; the ring is asked for each pair of labels once per cached
    (theta, kappa, ring, n).

    The expansion is cached and shared; the dict returned is a fresh copy.
    """
    t = _validate_label_tuple(theta, ring)
    k = _validate_label_tuple(kappa, ring)
    return _r_expansion(t, k, ring, _size(n, len(t) + len(k), "n")).copy()


@_kernel(4096, 256)
def _r_expansion(
    t: LabelTuple, k: LabelTuple, ring: GradedRingData, n: int
) -> Mapping[LabelTuple, Fraction]:
    """``qsym_r_product`` on validated label tuples and n, read-only."""
    unit = ring.unit
    # each padding with the bitmask of the slots its labels hit
    lefts = [(k1, _hit_mask(k1, unit)) for k1 in paddings(t, n, unit)]
    rights = [(k2, _hit_mask(k2, unit)) for k2 in paddings(k, n, unit)]
    products: dict[tuple[Label, Label], dict[Label, Fraction]] = {}
    pairs: list[list[dict[Label, Fraction]]] = []
    for k1, m1 in lefts:
        for k2, m2 in rights:
            # labels in t and k have positive degree (``_validate_label_tuple``
            # checks it), so their graded products never hold the unit:
            # a pair's tensors are non-unit exactly on the slots hit from
            # either side, and an initial segment needs those to be the
            # low bits, a mask of the form 2^L - 1
            hit = m1 | m2
            if hit & (hit + 1):
                continue
            slots = []
            for ab in zip(k1[: hit.bit_length()], k2):
                slot = products.get(ab)
                if slot is None:
                    slot = products[ab] = ring._product(*ab)
                slots.append(slot)
            pairs.append(slots)
    return MappingProxyType(_slot_products(pairs, n))


def _hit_mask(padding: tuple, unit: Label) -> int:
    """The bitmask of the slots of ``padding`` that do not hold ``unit``:
    bit i for slot i."""
    return sum(1 << i for i, label in enumerate(padding) if label != unit)


def qsym_r_product_shuffle(
    theta: Iterable[Label],
    kappa: Iterable[Label],
    ring: GradedRingData,
) -> dict[LabelTuple, Fraction]:
    """Cross-check route: overlapping shuffle of label tuples with collisions
    resolved through the ring's structure constants.  Each placement into
    at most len(theta) + len(kappa) slots is one pair of the sum.
    """
    t = _validate_label_tuple(theta, ring)
    k = _validate_label_tuple(kappa, ring)
    n = len(t) + len(k)
    pairs = [
        [ring._product(x, y) for x, y in zip(l, r)]
        for length in range(max(len(t), len(k)), n + 1)
        for l, r in overlapping_paddings(t, k, length, ring.unit)
    ]
    return _slot_products(pairs, n)
