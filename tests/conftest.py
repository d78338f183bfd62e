import inspect
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, product, repeat
from operator import attrgetter, mul
from pathlib import Path
from typing import Any, Callable, NamedTuple

import glidekit as gk
from glidekit.errors import LengthMismatchError, MalformedInputError, UnknownLabelError
from glidekit.poly import _BoxTerms


def compositions_of(total):
    """All compositions of a nonnegative integer, () for zero."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions_of(total - first):
            yield (first,) + rest


def all_compositions(max_size):
    return [a for s in range(max_size + 1) for a in compositions_of(s)]


def strings(*words):
    """The weak compositions written as digit strings: "0103" is (0, 1, 0, 3)."""
    return {tuple(int(c) for c in w) for w in words}


def pad_composition(alpha, positions, n):
    """Place alpha at the given positions inside a length-n zero string."""
    s = [0] * n
    for i, part in zip(positions, alpha):
        s[i] = part
    return tuple(s)


def all_paddings(alpha, n):
    return [pad_composition(alpha, pos, n) for pos in combinations(range(n), len(alpha))]


def pairwise_closure(generators, pick):
    """Tuple reference for ``compositions.closure``: combine every pair of
    elements under the componentwise ``pick`` (``max`` or ``min``) until
    nothing new appears.  Each round pairs the elements new in the last one
    with all of them, so every pair is combined once.  It packs nothing and
    pairs elements with elements, not with generators, so it shares no step
    with the code it checks."""
    elements = set(generators)
    fresh = set(elements)
    while fresh:
        fresh = {tuple(map(pick, p, q)) for p in fresh for q in elements} - elements
        elements |= fresh
    return elements


def assert_box_is_image(image, n):
    """The dense box a Chern image keeps lines up with the image's terms:
    its nonzero entries sit at the terms' exponent vectors, in term order,
    and each is the numerator of its term's coefficient over the box's
    denominator.  The slice check and the box reader of criterion 07 read
    the box, and the terms are a view built from it, so the two must
    describe one polynomial."""
    view = image.terms
    assert type(view) is _BoxTerms, type(view)
    box, values, denominator = view._numerators, view._exponents, view._over
    assert len(box) == len(values) ** n
    assert list(compress(product(values, repeat=n), box)) == list(image.terms)
    numerators = list(filter(None, box))
    assert list(image.terms.values()) == [Fraction(c, denominator) for c in numerators]
    if not numerators:
        return
    coeffs = image.terms.values()
    ratio = numerators[0] / next(iter(coeffs))
    assert ratio.denominator == 1 and ratio > 0
    # c / common == p / q for every numerator c and term coefficient p / q,
    # cross-multiplied so that only ints are compared
    common = ratio.numerator
    scaled = map(mul, numerators, map(attrgetter("denominator"), coeffs))
    assert list(scaled) == list(map(mul, map(attrgetter("numerator"), coeffs), repeat(common)))




_OPERATORS = ("__add__", "__sub__", "__mul__")


def public_callables():
    """name -> callable for the public API: the callables in
    ``glidekit.__all__``, and the public methods and the ``+``, ``-`` and
    ``*`` operators of its classes (as ``Class.method``).  A ``property``
    or ``cached_property`` is read as an attribute, so it is no method."""
    found = {}
    for name in gk.__all__:
        obj = getattr(gk, name)
        if callable(obj):
            found[name] = obj
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if (
                    (not attr.startswith("_") or attr in _OPERATORS)
                    and inspect.isroutine(getattr(obj, attr))
                    and not isinstance(value, cached_property)
                ):
                    found[f"{name}.{attr}"] = getattr(obj, attr)
    return found


class Arg(NamedTuple):
    """One parameter of a public callable.

    ``call`` takes the argument alone, with valid values in the other
    places, and ``valid`` is an argument it takes.  ``rule`` is the rule the
    argument obeys, and ``need`` what that rule's test needs:

    - "parts": the least part (a bad part goes first, see ``with_first``);
    - "string": whether the call fixes the string's length;
    - "size": the least value;
    - "coefficient": None, or a function that puts a coefficient where the
      argument holds one, if ``with_first`` cannot;
    - "object": an object of another library class;
    - "container": an item the container refuses, and the error it raises;
    - "label": a label of another ring, which the ring refuses;
    - "other": nothing; the junk sweep alone feeds it.
    """

    call: Callable[[Any], Any]
    valid: Any
    rule: str
    need: Any = None


def with_first(value, x):
    """``value`` with its first part or coefficient replaced by ``x``: the
    first entry of a tuple, taken down through nested tuples, the first
    value of a dict, or ``x`` itself in place of a single number."""
    if isinstance(value, dict):
        return {**value, next(iter(value)): x}
    if isinstance(value, tuple):
        return (with_first(value[0], x), *value[1:])
    return x


_ONE = gk.SparsePoly.one(2)
_Q = gk.QSymElement.monomial((1,))
_K = gk.KRingElement(_ONE, 2)
_LINE = gk.KRingElement(gk.SparsePoly.one(1), 1)
_P = gk.build_poset((1,), 2)
_SHAPE = gk.SkewShape((1,), (0,))
_T = gk.Tableau(_SHAPE, ((1,),))
_RING = gk.cpinf_ring()
_DATA = gk.sorting_data((1,))
# a factor of the tensor product takes only labels of positive degree, not the unit
_LABEL = (0, UnknownLabelError)
# a label of ``schur_ring(2)``, which ``_RING`` refuses
_TABLEAU = (1, 0)

# one row per parameter of every public callable but ``self``
ARGS = {
    ("GlidePoset", "n"): Arg(lambda x: gk.GlidePoset(x, [(1, 0), (0, 1)]), 2, "size", 0),
    ("GlidePoset", "elements"): Arg(
        lambda x: gk.GlidePoset(2, x), [(1, 0), (0, 1)], "container", ((1,), LengthMismatchError)
    ),
    ("GlidePoset.meet", "p"): Arg(lambda x: _P.meet(x, (1, 0)), (1, 0), "string", True),
    ("GlidePoset.meet", "q"): Arg(lambda x: _P.meet((1, 0), x), (1, 0), "string", True),
    ("GlidePoset.mobius_crosscut", "sigma"): Arg(_P.mobius_crosscut, (1, 0), "string", True),
    ("GradedRingData", "unit"): Arg(
        lambda x: gk.GradedRingData(x, _RING.degree, _RING.multiply, _RING.contains), 0, "other"
    ),
    ("GradedRingData", "degree"): Arg(
        lambda x: gk.GradedRingData(0, x, _RING.multiply, _RING.contains), _RING.degree, "other"
    ),
    ("GradedRingData", "multiply"): Arg(
        lambda x: gk.GradedRingData(0, _RING.degree, x, _RING.contains).product(1, 1),
        _RING.multiply,
        "coefficient",
        lambda c: lambda a, b: {a + b: c},
    ),
    ("GradedRingData", "contains"): Arg(
        lambda x: gk.GradedRingData(0, _RING.degree, _RING.multiply, x), _RING.contains, "other"
    ),
    ("GradedRingData.from_dict", "data"): Arg(
        gk.GradedRingData.from_dict, {"basis": [{"label": "1", "degree": 0}]}, "object", _Q
    ),
    ("GradedRingData.from_json_file", "path"): Arg(
        gk.GradedRingData.from_json_file, str(Path(__file__).with_name("ring.json")), "other"
    ),
    ("GradedRingData.product", "a"): Arg(lambda x: _RING.product(x, 2), 1, "label", _TABLEAU),
    ("GradedRingData.product", "b"): Arg(lambda x: _RING.product(1, x), 2, "label", _TABLEAU),
    ("KRingElement", "poly"): Arg(lambda x: gk.KRingElement(x, 1), _ONE, "object", _Q),
    ("KRingElement", "m"): Arg(lambda x: gk.KRingElement(_ONE, x), 2, "size", 0),
    ("KRingElement.__add__", "other"): Arg(lambda x: _K + x, _K, "object", _ONE),
    ("KRingElement.__mul__", "other"): Arg(lambda x: _K * x, _K, "object", _ONE),
    ("KRingElement.restrict", "n"): Arg(lambda x: _K.restrict(x, 1), 1, "size", 0),
    ("KRingElement.restrict", "m"): Arg(lambda x: _K.restrict(1, x), 1, "size", 0),
    ("QSymElement", "coords"): Arg(lambda x: gk.QSymElement(x, 3), {(1,): 1}, "coefficient"),
    ("QSymElement", "degree_bound"): Arg(lambda x: gk.QSymElement({}, x), 3, "size", 0),
    ("QSymElement.__add__", "other"): Arg(lambda x: _Q + x, _Q, "object", _K),
    ("QSymElement.monomial", "alpha"): Arg(gk.QSymElement.monomial, (1, 2), "parts", 1),
    ("QSymElement.monomial", "degree_bound"): Arg(
        lambda x: gk.QSymElement.monomial((1,), x), 3, "size", 0
    ),
    ("QSymElement.scale", "factor"): Arg(_Q.scale, 2, "coefficient"),
    ("SkewShape", "outer"): Arg(lambda x: gk.SkewShape(x, (0, 0)), (1, 0), "string", True),
    ("SkewShape", "inner"): Arg(lambda x: gk.SkewShape((1, 1), x), (1, 0), "string", True),
    ("SparsePoly", "nvars"): Arg(gk.SparsePoly, 2, "size", 0),
    ("SparsePoly", "terms"): Arg(lambda x: gk.SparsePoly(2, x), {(1, 0): 1}, "coefficient"),
    ("SparsePoly.__add__", "other"): Arg(lambda x: _ONE + x, _ONE, "object", _K),
    ("SparsePoly.__sub__", "other"): Arg(lambda x: _ONE - x, _ONE, "object", _K),
    ("SparsePoly.__mul__", "other"): Arg(lambda x: _ONE * x, _ONE, "object", _K),
    ("SparsePoly.coefficient", "exps"): Arg(_ONE.coefficient, (1, 0), "string", True),
    ("SparsePoly.monomial", "exps"): Arg(gk.SparsePoly.monomial, (1, 0), "string", False),
    ("SparsePoly.monomial", "coeff"): Arg(
        lambda x: gk.SparsePoly.monomial((1,), x), 1, "coefficient"
    ),
    ("SparsePoly.one", "nvars"): Arg(gk.SparsePoly.one, 2, "size", 0),
    ("SparsePoly.restrict", "nvars"): Arg(_ONE.restrict, 1, "size", 0),
    ("SparsePoly.scale", "factor"): Arg(_ONE.scale, 2, "coefficient"),
    ("SparsePoly.zero", "nvars"): Arg(gk.SparsePoly.zero, 2, "size", 0),
    ("Tableau", "shape"): Arg(lambda x: gk.Tableau(x, ((1,),)), _SHAPE, "object", _T),
    ("Tableau", "rows"): Arg(lambda x: gk.Tableau(_SHAPE, x), ((1,),), "parts", 1),
    ("as_composition", "parts"): Arg(gk.as_composition, (1, 2), "parts", 1),
    ("as_partition", "parts"): Arg(lambda x: gk.as_partition(x, 2), (2, 1), "parts", 0),
    ("as_partition", "k"): Arg(lambda x: gk.as_partition((1,), x), 1, "size", 0),
    ("as_weak_composition", "parts"): Arg(gk.as_weak_composition, (1, 0), "parts", 0),
    ("atoms", "alpha"): Arg(lambda x: gk.atoms(x, 2), (1, 2), "parts", 1),
    ("atoms", "n"): Arg(lambda x: gk.atoms((1,), x), 1, "size", 1),
    ("build_poset", "alpha"): Arg(lambda x: gk.build_poset(x, 2), (1, 2), "parts", 1),
    ("build_poset", "n"): Arg(lambda x: gk.build_poset((1,), x), 1, "size", 1),
    ("buk_structure_constant", "lam_tuple"): Arg(
        lambda x: gk.buk_structure_constant(x, ((1,),), ((2,),), 1), ((1,),), "parts", 0
    ),
    ("buk_structure_constant", "mu_tuple"): Arg(
        lambda x: gk.buk_structure_constant(((1,),), x, ((2,),), 1), ((1,),), "parts", 0
    ),
    ("buk_structure_constant", "nu_tuple"): Arg(
        lambda x: gk.buk_structure_constant(((1,),), ((1,),), x, 1), ((2,),), "parts", 0
    ),
    ("buk_structure_constant", "k"): Arg(
        lambda x: gk.buk_structure_constant((), (), (), x), 1, "size", 0
    ),
    ("check_binomial_identity", "N"): Arg(lambda x: gk.check_binomial_identity(x, 2), 1, "size", 1),
    ("check_binomial_identity", "l"): Arg(lambda x: gk.check_binomial_identity(1, x), 2, "size", 1),
    ("chern_series_coeffs", "m"): Arg(gk.chern_series_coeffs, 2, "size", 0),
    ("chern_substitute", "element"): Arg(gk.chern_substitute, _K, "object", _ONE),
    ("content", "t"): Arg(gk.content, _T, "object", _SHAPE),
    ("coxeter_length", "w"): Arg(gk.coxeter_length, (2, 1), "parts", 1),
    ("enumerate_C", "alpha"): Arg(lambda x: gk.enumerate_C(x, 2), (1, 2), "parts", 1),
    ("enumerate_C", "n"): Arg(lambda x: gk.enumerate_C((1,), x), 1, "size", 1),
    ("enumerate_C_tilde", "alpha"): Arg(lambda x: gk.enumerate_C_tilde(x, 2), (1, 2), "parts", 1),
    ("enumerate_C_tilde", "n"): Arg(lambda x: gk.enumerate_C_tilde((1,), x), 1, "size", 1),
    ("glide_element", "alpha"): Arg(lambda x: gk.glide_element(x, 3), (1, 2), "parts", 1),
    ("glide_element", "degree_bound"): Arg(lambda x: gk.glide_element((1,), x), 2, "size", 0),
    ("glide_expand", "f"): Arg(lambda x: gk.glide_expand(x, 1), _Q, "object", _ONE),
    ("glide_expand", "degree_bound"): Arg(lambda x: gk.glide_expand(_Q, x), 1, "size", 0),
    ("glide_polynomial", "alpha"): Arg(lambda x: gk.glide_polynomial(x, 2), (1, 2), "parts", 1),
    ("glide_polynomial", "n"): Arg(lambda x: gk.glide_polynomial((1,), x), 1, "size", 1),
    ("glide_polynomial", "method"): Arg(
        lambda x: gk.glide_polynomial((1, 2), 3, x), "poset", "other"
    ),
    ("glide_structure_constants", "alpha"): Arg(
        lambda x: gk.glide_structure_constants(x, (1,), 2), (1,), "parts", 1
    ),
    ("glide_structure_constants", "beta"): Arg(
        lambda x: gk.glide_structure_constants((1,), x, 2), (1,), "parts", 1
    ),
    ("glide_structure_constants", "degree_bound"): Arg(
        lambda x: gk.glide_structure_constants((1,), (1,), x), 2, "size", 0
    ),
    ("grassmannian_to_partition", "w"): Arg(
        lambda x: gk.grassmannian_to_partition(x, 1), (1, 2), "string", False
    ),
    ("grassmannian_to_partition", "k"): Arg(
        lambda x: gk.grassmannian_to_partition((1, 2), x), 1, "size", 0
    ),
    ("is_ballot", "t"): Arg(gk.is_ballot, _T, "object", _SHAPE),
    ("is_grassmannian", "w"): Arg(lambda x: gk.is_grassmannian(x, 1), (2, 1), "parts", 1),
    ("is_grassmannian", "k"): Arg(lambda x: gk.is_grassmannian((2, 1), x), 1, "size", 0),
    ("is_quasisymmetric", "f"): Arg(lambda x: gk.is_quasisymmetric(x, 2), _ONE, "object", _K),
    ("is_quasisymmetric", "n"): Arg(lambda x: gk.is_quasisymmetric(_ONE, x), 2, "size", 0),
    ("join", "p"): Arg(lambda x: gk.join(x, (0, 1)), (1, 0), "string", True),
    ("join", "q"): Arg(lambda x: gk.join((0, 1), x), (1, 0), "string", True),
    ("knutson_class", "alpha"): Arg(lambda x: gk.knutson_class(x, 2, 2), (1, 2), "parts", 1),
    ("knutson_class", "n"): Arg(lambda x: gk.knutson_class((1,), x, 1), 1, "size", 1),
    ("knutson_class", "m"): Arg(lambda x: gk.knutson_class((1,), 1, x), 1, "size", 1),
    ("leq", "p"): Arg(lambda x: gk.leq(x, (1, 1)), (1, 0), "string", True),
    ("leq", "q"): Arg(lambda x: gk.leq((0, 0), x), (1, 0), "string", True),
    ("line_bundle_to_y", "coeffs"): Arg(lambda x: gk.line_bundle_to_y(x, 1), (1, 0), "coefficient"),
    ("line_bundle_to_y", "m"): Arg(lambda x: gk.line_bundle_to_y((1, 0), x), 1, "size", 0),
    ("lr_coefficient", "lam"): Arg(
        lambda x: gk.lr_coefficient(x, (1, 0), (2, 0)), (1, 0), "parts", 0
    ),
    ("lr_coefficient", "mu"): Arg(
        lambda x: gk.lr_coefficient((1, 0), x, (2, 0)), (1, 0), "parts", 0
    ),
    ("lr_coefficient", "nu"): Arg(
        lambda x: gk.lr_coefficient((1, 0), (1, 0), x), (2, 0), "parts", 0
    ),
    ("m_multiply", "f"): Arg(lambda x: gk.m_multiply(x, _Q), _Q, "object", _ONE),
    ("m_multiply", "g"): Arg(lambda x: gk.m_multiply(_Q, x), _Q, "object", _ONE),
    ("m_to_polynomial", "alpha"): Arg(lambda x: gk.m_to_polynomial(x, 2), (1, 2), "parts", 1),
    ("m_to_polynomial", "n"): Arg(lambda x: gk.m_to_polynomial((1,), x), 1, "size", 0),
    ("monomial_glide_weak", "a"): Arg(gk.monomial_glide_weak, (0, 1), "parts", 0),
    ("mu_closed", "sigma"): Arg(lambda x: gk.mu_closed(x, (1,)), (1, 0), "string", False),
    ("mu_closed", "alpha"): Arg(lambda x: gk.mu_closed((1, 2), x), (1, 2), "parts", 1),
    ("mu_prime", "sigma"): Arg(lambda x: gk.mu_prime(x, (1,), 2), (1, 0), "string", True),
    ("mu_prime", "alpha"): Arg(lambda x: gk.mu_prime((1, 2), x, 2), (1, 2), "parts", 1),
    ("mu_prime", "n"): Arg(lambda x: gk.mu_prime((1,), (1,), x), 1, "size", 0),
    ("overlapping_shuffle", "alpha"): Arg(
        lambda x: gk.overlapping_shuffle(x, (2,)), (1,), "parts", 1
    ),
    ("overlapping_shuffle", "beta"): Arg(
        lambda x: gk.overlapping_shuffle((2,), x), (1,), "parts", 1
    ),
    ("partition_to_grassmannian", "lam"): Arg(
        lambda x: gk.partition_to_grassmannian(x, 1), (1,), "parts", 0
    ),
    ("partition_to_grassmannian", "k"): Arg(
        lambda x: gk.partition_to_grassmannian((0,), x), 1, "size", 0
    ),
    ("partition_to_grassmannian", "n"): Arg(
        lambda x: gk.partition_to_grassmannian((), 0, x), 1, "size", 0
    ),
    ("polynomial_to_m", "f"): Arg(lambda x: gk.polynomial_to_m(x, 2), _ONE, "object", _K),
    ("polynomial_to_m", "n"): Arg(lambda x: gk.polynomial_to_m(_ONE, x), 2, "size", 0),
    ("positive_part", "w"): Arg(gk.positive_part, (1, 0), "string", False),
    ("projective_structure_class", "r"): Arg(
        lambda x: gk.projective_structure_class(x, 1), 1, "size", 0
    ),
    ("projective_structure_class", "m"): Arg(
        lambda x: gk.projective_structure_class(1, x), 1, "size", 1
    ),
    ("qsym_r_product", "theta"): Arg(
        lambda x: gk.qsym_r_product(x, (1,), _RING, 2), (2,), "container", _LABEL
    ),
    ("qsym_r_product", "kappa"): Arg(
        lambda x: gk.qsym_r_product((2,), x, _RING, 2), (1,), "container", _LABEL
    ),
    ("qsym_r_product", "ring"): Arg(
        lambda x: gk.qsym_r_product((1,), (1,), x, 2), _RING, "object", _Q
    ),
    ("qsym_r_product", "n"): Arg(lambda x: gk.qsym_r_product((1,), (), _RING, x), 1, "size", 1),
    ("qsym_r_product_shuffle", "theta"): Arg(
        lambda x: gk.qsym_r_product_shuffle(x, (1,), _RING), (2,), "container", _LABEL
    ),
    ("qsym_r_product_shuffle", "kappa"): Arg(
        lambda x: gk.qsym_r_product_shuffle((2,), x, _RING), (1,), "container", _LABEL
    ),
    ("qsym_r_product_shuffle", "ring"): Arg(
        lambda x: gk.qsym_r_product_shuffle((1,), (1,), x), _RING, "object", _Q
    ),
    ("reading_word", "t"): Arg(gk.reading_word, _T, "object", _SHAPE),
    ("run_decode", "runs"): Arg(
        gk.run_decode, ((1, 2), (3, 1)), "container", (5, MalformedInputError)
    ),
    ("run_encode", "alpha"): Arg(gk.run_encode, (1, 1, 3), "parts", 1),
    ("schur_polynomial", "lam"): Arg(lambda x: gk.schur_polynomial(x, 1), (1,), "parts", 0),
    ("schur_polynomial", "k"): Arg(lambda x: gk.schur_polynomial((1,), x), 1, "size", 0),
    ("schur_ring", "k"): Arg(gk.schur_ring, 2, "size", 0),
    ("semistandardize", "tau"): Arg(lambda x: gk.semistandardize(x, (1,)), (1, 0), "string", False),
    ("semistandardize", "alpha"): Arg(lambda x: gk.semistandardize((1, 0), x), (1,), "parts", 1),
    ("sorting_data", "alpha"): Arg(gk.sorting_data, (2, 1), "parts", 1),
    ("ssyt_enumerate", "shape"): Arg(lambda x: gk.ssyt_enumerate(x, (1,)), _SHAPE, "object", _T),
    ("ssyt_enumerate", "weight"): Arg(
        lambda x: gk.ssyt_enumerate(gk.SkewShape((2,), (0,)), x), (1, 1), "parts", 0
    ),
    ("standardize", "tau"): Arg(lambda x: gk.standardize(x, _DATA), (1, 0), "string", False),
    ("standardize", "data"): Arg(lambda x: gk.standardize((1, 0), x), _DATA, "object", _Q),
    ("y_to_line_bundle", "element"): Arg(
        gk.y_to_line_bundle, _LINE, "object", gk.SparsePoly.one(1)
    ),
    ("z_locus", "alpha"): Arg(lambda x: gk.z_locus(x, 2, 2), (1, 2), "parts", 1),
    ("z_locus", "n"): Arg(lambda x: gk.z_locus((1,), x, 1), 1, "size", 1),
    ("z_locus", "m"): Arg(lambda x: gk.z_locus((1,), 1, x), 1, "size", 1),
}


def rows(*rules):
    """The table's (callable, parameter) keys whose argument obeys one of
    the rules, sorted."""
    return sorted(key for key, arg in ARGS.items() if arg.rule in rules)
