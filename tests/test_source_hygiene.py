"""Source guards: no unused import, no private module-level function or
class that nothing in the package references, no public one that is
neither in ``glidekit.__all__`` nor named elsewhere in the package, no
coefficient coerced
with ``Fraction(x)`` outside the one coefficient rule, no link between
the two Mobius oracles (the string poset's and the K-side's) or between
two routes that check each other (the crosscut Mobius and the string
poset's bitset core, the tensor engine and the overlapping shuffle, the
overlapping shuffle and both tensor routes, the two coordinate readers,
the closed and barred glides, the tableau rule and the tensor engine), no
Chern box view built outside
``chern_substitute`` or read outside itself and the two box readers, no
slice-check verdict read or written outside the slice check, no
``isinstance`` test of a library class outside the one object rule, no
ring's ``contains`` asked outside the one label rule, no
count read off ``ssyt_enumerate``'s list of tableaux, no use of the
tableau walker outside ``schur.py``, and no function that calls itself
beyond the listed ones left to rewrite.

The checks read the package with the stdlib ``ast`` module only.
``__init__.py`` is left out but for its ``__all__``: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "glidekit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    """Every name read as a variable or an attribute, also inside quoted
    annotations such as ``"SparsePoly"``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_no_unreferenced_private_definition():
    trees = {p: _tree(p) for p in MODULES}
    # a name imported from another module counts as a reference
    referenced = set()
    for tree in trees.values():
        referenced |= _used_names(tree)
        referenced |= {name for name, _ in _imported_names(tree)}
    unreferenced = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in referenced
    ]
    assert not unreferenced, f"private definitions nothing references: {unreferenced}"


def _exported() -> set[str]:
    """The names in ``glidekit.__all__``, read off ``__init__.py``."""
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    return set()


def test_no_public_definition_outside_the_api_that_nothing_names():
    exported = _exported()
    # the guard reads ``__all__``, so it is not matching everything
    assert exported
    tops = [(path, node) for path in MODULES for node in _tree(path).body]
    named = [(node, _used_names(node)) for _, node in tops]
    stray = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported
        and not any(node.name in names for other, names in named if other is not node)
    ]
    assert not stray, f"public definitions outside __all__ that nothing names: {stray}"


# the coefficient rule (``compositions._exact``) and the JSON text parser
# are the only places that may turn a value into a Fraction; the serializer
# writes what the coefficient rule returns
_MAY_COERCE = {"_exact", "parse_frac"}


def _coercions(node: ast.AST, function: str | None = None):
    """(function, line) of every one-argument ``Fraction(x)`` call whose
    argument is not a literal, with the innermost enclosing function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
        and len(node.args) == 1
        and not node.keywords
    ):
        try:
            ast.literal_eval(node.args[0])
        except ValueError:
            yield function, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _coercions(child, function)


def test_no_coefficient_coerced_outside_the_coefficient_rule():
    found = [
        f"{path.name}:{line} in {function}"
        for path in MODULES
        for function, line in _coercions(_tree(path))
        if function not in _MAY_COERCE
    ]
    assert not found, f"Fraction(x) outside the coefficient rule: {found}"


def _names_and_modules(tree: ast.AST) -> set[str]:
    """Every name ``_used_names`` finds, every imported name and alias, and
    each dotted part of an imported module's path."""
    found = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            found |= set(node.module.split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found |= set(alias.name.split(".")) | {alias.asname}
    return found


# the K-side Mobius and the string-poset Mobius both run on bitsets, and
# each checks the other only while neither reaches into the other's module
_KEPT_APART = {
    "ktheory.py": {"poset", "GlidePoset", "build_poset"},
    "poset.py": {"ktheory"},
}


@pytest.mark.parametrize("name", sorted(_KEPT_APART))
def test_mobius_oracles_stay_independent(name):
    named = _names_and_modules(_tree(PACKAGE / name)) & _KEPT_APART[name]
    assert not named, f"{name} reaches the other Mobius oracle through {sorted(named)}"


# the barred glide's functions in ``glides.py``; ``strings`` is the cached
# closure's decoder
_BARRED_ROUTE = {
    "_barred_fields",
    "_barred_strings",
    "_move_closure",
    "_signed_projection",
    "_ascending_terms",
    "_barred",
    "_c_tilde",
    "strings",
    "enumerate_C_tilde",
    "mu_prime",
}

# routes that check each other, each kept apart from the code it checks:
# (module, the route's functions, names those functions must not use)
_ROUTES_APART = {
    # the crosscut Mobius checks ``GlidePoset.mobius`` only while it and the
    # atoms it sums over are found without the bitset downsets, the Mobius
    # recurrence or the covers that ``mobius`` shares its tables with
    "crosscut": (
        "poset.py",
        {"mobius_crosscut", "atom_set"},
        {"_downsets", "mobius", "covers"},
    ),
    # the tensor engine keeps its own placement, so it checks the shared
    # generator, the overlapping shuffle, whose cached table it may not
    # read either; its loop runs in the cached body
    "tensor-engine": (
        "qsym.py",
        {"qsym_r_product", "_r_expansion"},
        {
            "overlapping_paddings",
            "overlapping_shuffle",
            "_overlapping_shuffle",
            "qsym_r_product_shuffle",
        },
    ),
    # the overlapping shuffle counts by its recursion, so over ``cpinf_ring``
    # it checks both tensor routes with no placement code in common; the
    # recursion runs in the cached body
    "overlapping-shuffle": (
        "qsym.py",
        {"overlapping_shuffle", "_overlapping_shuffle"},
        {
            "overlapping_paddings",
            "paddings",
            "_place",
            "_slot_products",
            "qsym_r_product",
            "qsym_r_product_shuffle",
        },
    ),
    # the two coordinate readers share nothing, in either direction
    "grouping-reader": (
        "qsym.py",
        {"_group_by_positive_part"},
        {"_checked_box", "_read_box", "_BoxTerms"}
        | {"_nvars", "_numerators", "_exponents", "_denominator", "_quasisymmetric"},
    ),
    "box-readers": ("qsym.py", {"_checked_box", "_read_box"}, {"_group_by_positive_part"}),
    # the closed and barred glide routes check each other and the poset route
    "closed-glide": (
        "glides.py",
        {"_closed", "_closed_terms", "_inflations", "enumerate_C", "mu_closed", "glide_m_expansion"},
        _BARRED_ROUTE | {"build_poset"},
    ),
    # the barred route runs on packed strings, as the poset closure does, but
    # reaches neither the closure nor its join core: it shares only the
    # plumbing listed in ``_PLUMBING``
    "barred-glide": (
        "glides.py",
        _BARRED_ROUTE | {"monomial_glide_weak"},
        {
            "_closed",
            "_closed_terms",
            "_inflations",
            "glide_m_expansion",
            "mu_closed",
            "build_poset",
            "closure",
            "_packed_closure",
            "_joins",
        },
    ),
    # the tableau rule checks the tensor engine over the Schur ring
    "tableau-rule": (
        "schur.py",
        {"buk_structure_constant"},
        {"qsym_r_product", "schur_ring", "GradedRingData"},
    ),
}


# The package's helpers that two routes which check each other may both
# call, each with the reason it may be shared: it only validates, lays out,
# packs or unpacks strings, and decides no value of either route.
_PLUMBING = {
    "_size": "the one rule for a size, which checks n",
    "_fields": "the shifts of fixed-width fields, coordinate 0 highest",
    "_width": "rounds a field up to one digit in base 2, 8 or 16",
    "_pack": "packs a tuple into the fields",
    "_unpack_all": "unpacks ints into tuples, in the order given",
}
# (module, the route's functions): two routes whose shared helpers must be
# plumbing; the poset route's closure and join core live in compositions.py
_SHARING = {
    "barred-glide": [("glides.py", _BARRED_ROUTE | {"monomial_glide_weak"})],
    "poset-closure": [
        ("poset.py", {"build_poset"}),
        ("compositions.py", {"closure", "_packed_closure", "_joins"}),
    ],
}


def _route_names(parts) -> set[str]:
    names = set()
    for module, functions in parts:
        bodies = [
            node
            for node in ast.walk(_tree(PACKAGE / module))
            if isinstance(node, ast.FunctionDef) and node.name in functions
        ]
        assert sorted(node.name for node in bodies) == sorted(functions)
        for node in bodies:
            names |= _used_names(node)
    return names


def test_barred_and_poset_routes_share_only_declared_plumbing():
    helpers = {
        node.name
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    }
    barred, poset = (_route_names(_SHARING[route]) for route in ("barred-glide", "poset-closure"))
    shared = barred & poset & helpers
    # every shared helper is declared, and every declared one is shared, so
    # the table neither misses a helper nor keeps a stale one
    assert shared == set(_PLUMBING), f"shared {sorted(shared)}, declared {sorted(_PLUMBING)}"


@pytest.mark.parametrize("route", sorted(_ROUTES_APART))
def test_independent_routes_share_no_core(route):
    module, functions, forbidden = _ROUTES_APART[route]
    bodies = {
        node.name: node
        for node in ast.walk(_tree(PACKAGE / module))
        if isinstance(node, ast.FunctionDef) and node.name in functions
    }
    # every function is found, so the guard is not matching nothing
    assert sorted(bodies) == sorted(functions)
    for name, node in bodies.items():
        named = _used_names(node) & forbidden
        assert not named, f"{name} reaches the route it checks through {sorted(named)}"


# A Chern image's dense box lives in its terms view, ``poly._BoxTerms``, and
# the slice check answers criterion 07 from it.  Only ``chern_substitute``
# may build a view, so no other builder can hand the check a box it did not
# compute, and only the view itself and the two box readers may read the
# box's fields, so the box reader is given a box that passed the check.
# The view also keeps the check's verdict, ``_VERDICT``: the view declares
# it and ``__init__`` sets it to None, and only the slice check reads or
# writes it, so no other code can pass an image off as checked.
_BOX_FIELDS = {"_nvars", "_numerators", "_exponents", "_denominator"}
_VERDICT = "_quasisymmetric"
_BOX_USES = {
    ("ktheory.py", "chern_substitute"): {"build"},
    ("poly.py", "_BoxTerms"): {"read", "declare verdict"},
    ("poly.py", "_BoxTerms.__init__"): {"clear verdict"},
    ("qsym.py", "_checked_box"): {"read", "read verdict", "write verdict"},
    ("qsym.py", "_read_box"): {"read"},
}


def _box_uses(tree: ast.Module):
    """(place, line, kind) of each use of the box.  A call of ``_BoxTerms``,
    kind "build", and an attribute or string naming a box field, "read",
    are placed at their top-level definition.  A use of the verdict is
    placed at the dotted name of the function or class around it: its name
    as a string in a class body is "declare verdict", an assignment of None
    to it "clear verdict", any other assignment or deletion "write verdict",
    and every other use "read verdict"."""
    cleared = {
        id(target)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Constant)
        and node.value.value is None
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    }

    def walk(node, scope, in_class):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            in_class = isinstance(node, ast.ClassDef)
        top = scope.split(".")[0] if scope else None
        if isinstance(node, ast.Call) and "_BoxTerms" in _used_names(node.func):
            yield top, node.lineno, "build"
        elif isinstance(node, ast.Attribute) and node.attr == _VERDICT:
            if isinstance(node.ctx, ast.Load):
                kind = "read"
            else:
                kind = "clear" if id(node) in cleared else "write"
            yield scope, node.lineno, f"{kind} verdict"
        elif isinstance(node, ast.Constant) and node.value == _VERDICT:
            yield scope, node.lineno, "declare verdict" if in_class else "read verdict"
        elif (isinstance(node, ast.Attribute) and node.attr in _BOX_FIELDS) or (
            isinstance(node, ast.Constant) and node.value in _BOX_FIELDS
        ):
            yield top, node.lineno, "read"
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope, in_class)

    return walk(tree, "", False)


def test_only_the_chern_box_writer_and_reader_use_the_box():
    seen, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for place, line, kind in _box_uses(_tree(path)):
            if kind in _BOX_USES.get((path.name, place), ()):
                seen.add((path.name, place, kind))
            else:
                found.append(f"{path.name}:{line} {kind} in {place or 'module'}")
    assert not found, f"the Chern box is used outside its builder and readers: {found}"
    # the guard sees every use it allows: the view built, each reader read
    # it, and the verdict declared, cleared, read and written, so it is not
    # matching nothing
    assert seen == {(*place, kind) for place, kinds in _BOX_USES.items() for kind in kinds}


# every library-object argument goes through ``compositions._instance``,
# which takes the class as an argument.  ``SparsePoly.__eq__`` keeps its own
# test: it answers NotImplemented, where the rule raises.
_LIBRARY_CLASSES = {
    "SparsePoly", "KRingElement", "QSymElement", "GradedRingData",
    "SkewShape", "Tableau", "SortingData", "GlidePoset",
}


def _scoped_calls(node: ast.AST, matches, scope: str = ""):
    """(scope, line) of every call that ``matches`` accepts, with the dotted
    class and function names around it."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    if isinstance(node, ast.Call) and matches(node):
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _scoped_calls(child, matches, scope)


def _class_tests(node: ast.AST):
    """(scope, line) of every ``isinstance`` call whose class argument names
    a library class."""
    return _scoped_calls(
        node,
        lambda call: isinstance(call.func, ast.Name)
        and call.func.id == "isinstance"
        and len(call.args) == 2
        and _used_names(call.args[1]) & _LIBRARY_CLASSES,
    )


def test_library_objects_are_checked_by_one_rule():
    found = [
        f"{path.name}:{line} in {scope or 'module'}"
        for path in MODULES
        for scope, line in _class_tests(_tree(path))
    ]
    assert not found, f"a library class tested outside compositions._instance: {found}"
    # the guard sees a planted test, so it is not matching nothing
    planted = ast.parse("class A:\n    def f(self, x):\n        return isinstance(x, SparsePoly)")
    assert list(_class_tests(planted)) == [("A.f", 3)]


# a label is what a ring's ``contains`` admits, and only the ring's label
# rule, ``GradedRingData._label``, asks it: the constructor, ``product`` and
# the tensor engine take that rule's answer, so none can decide another way
def test_ring_labels_are_checked_by_one_rule():
    found = [
        f"{path.name} in {scope or 'module'}"
        for path in MODULES
        for scope, _ in _scoped_calls(
            _tree(path), lambda call: getattr(call.func, "attr", None) == "contains"
        )
    ]
    # the guard sees the rule's own call, so it is not matching nothing
    assert found == ["qsym.py in GradedRingData._label"], f"contains asked elsewhere: {found}"


# ``schur._fillings`` walks the fillings once and the counts (``_lr``,
# ``schur_polynomial``) read its words; only the paper check lists the
# ``Tableau`` objects, and it filters them with ``is_ballot`` by itself, so
# it checks the walker's ballot prune from outside
def _calls(tree: ast.AST, name: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
    ]


def test_only_the_paper_check_lists_tableaux():
    callers = {p.name for p in PACKAGE.glob("*.py") if _calls(_tree(p), "ssyt_enumerate")}
    # the guard sees the one caller, so it is not matching nothing
    assert callers == {"verify.py"}, f"ssyt_enumerate called outside verify.py: {callers}"


def test_only_schur_names_its_walker():
    root = PACKAGE.parent.parent
    named = {
        str(p.relative_to(root))
        for folder in ("src", "tests", "tools", "perfbench")
        for p in (root / folder).rglob("*.py")
        if "_fillings" in _names_and_modules(_tree(p))
    }
    assert named == {"src/glidekit/schur.py"}, f"_fillings named outside schur.py: {named}"


# no function may call itself: a recursion on the size of an input ends in
# a RecursionError traceback on a long enough one, where the CLI promises a
# typed error or an answer.  None does any more; the list may only shrink
_STILL_RECURSIVE: set[str] = set()


def _self_calls(tree: ast.AST):
    """The dotted name of every function or method that calls itself by
    name, as ``f(...)`` or, in a class, as ``self.f(...)`` or ``cls.f(...)``."""

    def walk(node, scope, in_class):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{scope}.{node.name}" if scope else node.name
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (isinstance(func, ast.Name) and func.id == node.name) or (
                    in_class
                    and isinstance(func, ast.Attribute)
                    and func.attr == node.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")
                ):
                    yield name
                    break
            scope, in_class = name, False
        elif isinstance(node, ast.ClassDef):
            scope = f"{scope}.{node.name}" if scope else node.name
            in_class = True
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope, in_class)

    return walk(tree, "", False)


def test_no_function_calls_itself():
    found = {f"{path.name}: {name}" for path in MODULES for name in _self_calls(_tree(path))}
    assert found <= _STILL_RECURSIVE, f"functions that call themselves: {found - _STILL_RECURSIVE}"
    assert found == _STILL_RECURSIVE, f"no longer recursive, drop: {_STILL_RECURSIVE - found}"
    # the guard sees planted self-calls, so it is not matching nothing
    planted = ast.parse(
        "def f(n):\n    def g(k):\n        return g(k - 1)\n    return f(n - 1)\n"
        "class A:\n    def h(self):\n        return self.h()\n"
    )
    assert sorted(_self_calls(planted)) == ["A.h", "f", "f.g"]
