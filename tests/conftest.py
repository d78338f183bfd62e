import inspect
from itertools import combinations, compress, product, repeat
from operator import attrgetter, mul

import glidekit as gk
from glidekit.qsym import glide_element
from glidekit.schur import as_partition


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
    and are the terms' coefficients over one common denominator.  The box
    reader of criterion 07 checks the box and reads the coefficients off
    the terms, so the two must describe one polynomial."""
    box, values = image._box
    assert len(box) == len(values) ** n
    assert list(compress(product(values, repeat=n), box)) == list(image.terms)
    numerators = list(filter(None, box))
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


def public_callables():
    """name -> callable for the public API: the callables in
    ``glidekit.__all__``, the public methods of its classes (as
    ``Class.method``), and two helpers outside it that take a size."""
    found = {"glide_element": glide_element, "as_partition": as_partition}
    for name in gk.__all__:
        obj = getattr(gk, name)
        if callable(obj):
            found[name] = obj
        if inspect.isclass(obj):
            for attr in vars(obj):
                if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr)):
                    found[f"{name}.{attr}"] = getattr(obj, attr)
    return found
