"""Source guards: no unused import, no private module-level function or
class that nothing in the package references, no public one that is
neither in ``glidekit.__all__`` nor named elsewhere in the package, no
coefficient coerced
with ``Fraction(x)`` outside the one coefficient rule, no integer numerator
made a Fraction outside ``poly._FractionTable`` and the declared public
constructor calls, no link between
the two Mobius oracles (the string poset's and the K-side's) or between
two routes that check each other (the crosscut Mobius and the string
poset's bitset core, the tensor engine and the overlapping shuffle, the
overlapping shuffle and both tensor routes, the two coordinate readers,
the closed and barred glides, the tableau rule and the tensor engine), no
Chern box named outside ``poly._BoxTerms`` or built outside
``chern_substitute``, no slice-check verdict named outside the slice
check, no
``isinstance`` test of a library class outside the one object rule, no
ring's ``contains`` asked outside the one label rule, no
count read off ``ssyt_enumerate``'s list of tableaux, no use of the
tableau walker outside ``schur.py``, no function that calls itself
beyond the listed ones left to rewrite, no cache outside
``compositions._kernel`` but ``cli.build_parser``'s, and no private or
module-qualified name in README.md's backticks that the package does not
define.

The checks read the package with the stdlib ``ast`` module only.
``__init__.py`` is left out but for its ``__all__``: its imports are the
package's re-exports.
"""

import ast
import re
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


# an integer numerator becomes a Fraction in ``poly._FractionTable``, read by
# ``_exact_terms`` for a mapping of numerators and by ``_fractions`` for a
# stream that ``compress`` picks apart; only the JSON text parser, the
# closed-glide oracle (which shares no builder with the routes it checks)
# and the Chern series' factorials call the public ``Fraction(c, d)``
_FRACTION_BUILDS = {
    "bare Fraction": {("poly.py", "_FractionTable.__missing__")},
    "Fraction(c, d)": {
        ("jsonio.py", "parse_frac"),
        ("glides.py", "_closed_terms"),
        ("ktheory.py", "chern_series_coeffs"),
    },
    "_fractions": {
        ("poly.py", "_BoxTerms._read_placements"),
        ("poly.py", "_BoxTerms._built"),
        ("poly.py", "SparsePoly.__mul__"),
    },
}
_FRACTION_MATCHES = {
    "bare Fraction": lambda call: isinstance(call.func, ast.Attribute)
    and call.func.attr == "__new__"
    and _used_names(call.func.value) == {"object"}
    and any(_used_names(arg) == {"Fraction"} for arg in call.args),
    "Fraction(c, d)": lambda call: getattr(call.func, "id", None) == "Fraction"
    and len(call.args) + len(call.keywords) >= 2,
    "_fractions": lambda call: "_fractions"
    in (getattr(call.func, "id", None), getattr(call.func, "attr", None)),
}


def test_numerators_become_fractions_in_one_table():
    seen = {rule: set() for rule in _FRACTION_MATCHES}
    for path in MODULES:
        tree = _tree(path)
        for rule, matches in _FRACTION_MATCHES.items():
            seen[rule] |= {(path.name, scope) for scope, _ in _scoped_calls(tree, matches)}
    # every declared site is seen, and nothing else, so the guard is not
    # matching nothing
    assert seen == _FRACTION_BUILDS


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
        {"_box_passes", "_slice_check", "_read_placements", "_BoxTerms"}
        | {"_nvars", "_numerators", "_exponents", "_over", "_quasisymmetric"},
    ),
    "box-readers": (
        "poly.py", {"_slice_check", "_read_placements"}, {"_group_by_positive_part"}
    ),
    # the closed and barred glide routes check each other and the poset
    # route, and share no Fraction builder with them
    "closed-glide": (
        "glides.py",
        {"_closed", "_closed_terms", "_inflations", "enumerate_C", "mu_closed", "glide_m_expansion"},
        _BARRED_ROUTE | {"build_poset", "_exact_terms"},
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


# A Chern image's dense box is known to one class, ``poly._BoxTerms``, the
# view its terms are.  No other module names a box field or the slice
# check's verdict, so every read of the box is the class's own; only
# ``chern_substitute`` builds a box, so none holds what the substitution did
# not compute; and within the class only the slice check names the verdict
# (the class body declares it), so no code can pass a box off as checked.
_BOX_FIELDS = {"_nvars", "_numerators", "_exponents", "_over", "_quasisymmetric"}


def _naming(names: set[str]):
    """A matcher of the attributes and strings that name one of ``names``."""
    return lambda node: (isinstance(node, ast.Attribute) and node.attr in names) or (
        isinstance(node, ast.Constant) and node.value in names
    )


def test_only_the_box_class_knows_the_box():
    def places(matches, top=False):
        return {
            (path.name, scope.split(".")[0] if top else scope)
            for path in sorted(PACKAGE.glob("*.py"))
            for scope, _ in _scoped(_tree(path), matches)
        }

    # each rule sees exactly the places it allows, so none matches nothing
    assert places(_naming(_BOX_FIELDS), top=True) == {("poly.py", "_BoxTerms")}
    verdict = places(_naming({"_quasisymmetric"}))
    assert verdict == {("poly.py", "_BoxTerms"), ("poly.py", "_BoxTerms._slice_check")}
    builds = places(
        lambda call: isinstance(call, ast.Call) and "_BoxTerms" in _used_names(call.func)
    )
    assert builds == {("ktheory.py", "chern_substitute")}


# every library-object argument goes through ``compositions._instance``,
# which takes the class as an argument.  ``SparsePoly.__eq__`` keeps its own
# test: it answers NotImplemented, where the rule raises.
_LIBRARY_CLASSES = {
    "SparsePoly", "KRingElement", "QSymElement", "GradedRingData",
    "SkewShape", "Tableau", "SortingData", "GlidePoset",
}


def _scoped(node: ast.AST, matches, scope: str = ""):
    """(scope, line) of every node that ``matches`` accepts, with the dotted
    class and function names around it."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    if matches(node):
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, matches, scope)


def _scoped_calls(node: ast.AST, matches):
    """``_scoped`` of the calls that ``matches`` accepts."""
    return _scoped(node, lambda call: isinstance(call, ast.Call) and matches(call))


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


def test_every_cache_is_declared_by_the_kernel_rule():
    # functools' bounded and unbounded caches, by (module, definition, line)
    uses = {
        (path.name, getattr(top, "name", None), node.lineno)
        for path in MODULES
        for top in _tree(path).body
        for node in ast.walk(top)
        if getattr(node, "id", getattr(node, "attr", None)) in ("lru_cache", "cache")
    }
    # the parser, built once, is the one cache that is not a kernel; the
    # guard sees both, so it is not matching nothing
    declared = {("compositions.py", "_kernel"), ("cli.py", "build_parser")}
    assert {use[:2] for use in uses} == declared, sorted(uses)


def _defined(tree: ast.AST) -> set[str]:
    """Every name ``tree`` defines: its functions and classes, and the
    names and attributes it assigns."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def _top_level(tree: ast.Module) -> set[str]:
    """A module's own names: its top-level definitions and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names |= _defined(node)
    return names


# a dotted name in backticks, not part of a path or a file name
_README_NAME = re.compile(r"(?<![\w./])([A-Za-z_]\w*(?:\.\w+)*)(?![\w/]|\.\w)")


def _readme_names() -> list[str]:
    """Every dotted name inside a backticked span of README.md, which may
    break across lines, fenced blocks left out."""
    text = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return [name for span in spans for name in _README_NAME.findall(span)]


def test_readme_names_only_what_the_package_defines():
    trees = {path.stem: _tree(path) for path in PACKAGE.glob("*.py")}
    tops = {module: _top_level(tree) for module, tree in trees.items()}
    classes = {
        node.name: _defined(node)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    anywhere = set().union(*map(_defined, trees.values()))
    checked, missing = set(), set()
    for name in _readme_names():
        head, _, rest = name.removeprefix("glidekit.").partition(".")
        attr = rest.partition(".")[0]
        if head in trees and attr and attr != "py":
            known = attr in tops[head]
        elif head in classes and attr:
            known = attr in classes[head]
        elif head.startswith("_") and not head.startswith("__") and not attr:
            known = head in anywhere
        else:
            continue
        (checked if known else missing).add(name)
    assert not missing, f"README.md names what src/glidekit does not define: {sorted(missing)}"
    # the guard sees names of each form, so it is not matching nothing
    assert {"poly._BoxTerms", "SparsePoly.__mul__", "_BoxTerms._read_placements"} <= checked
