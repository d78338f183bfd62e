from itertools import combinations


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
