"""Every public module-level function and class of a layer, and every
public method of its classes, is used by the package itself, or is library
API that the tests check claims through.

References are read from the syntax tree, not the text, since docstrings
name functions: a name counts where it is loaded bare in its own layer or
in a module that imports it from there (``search_homs(...)``), or where
it is looked up on its layer (``braid.search_homs``), always outside its
own definition.  A method counts where an attribute of its name is looked
up (``p.cycle_type()``, ``Perm.from_cycles``) outside its own definition;
the receiver's class is not known from the tree, so a method name that
several classes define counts as used for all of them.
"""

import ast
from pathlib import Path

import pytest

import confspace

SRC = Path(confspace.__file__).resolve().parent
LAYERS = ("braid", "homology", "identities", "morphisms", "polyring",
          "ratios")

# library API without a caller in the package: the claims the tests check
# are stated through these names
TEST_FACING = {
    "braid": {
        "are_conjugate", "full_twist_word", "gorin_words", "is_transitive",
        "mu_image", "sphere_kernel_word", "verify_sym_hom", "word",
        "words_equal",
    },
    "ratios": {"act", "divides_oracle", "involution"},
}

# the same for methods, as Class.method
TEST_FACING_METHODS = {
    "braid": {
        "Perm.cycles", "Perm.identity", "Perm.is_identity", "Perm.order",
        "SymHom.apply",
    },
    "polyring": {"MultiPoly.evaluate"},
}

TREES = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def _public_definitions(layer):
    return [node for node in TREES[layer].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced(layer, definition):
    name = definition.name
    own = set(ast.walk(definition))
    for module, tree in TREES.items():
        # the names under which this module sees the definition bare
        bare = {name} if module == layer else {
            alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == layer
            for alias in node.names if alias.name == name}
        for node in ast.walk(tree):
            if node in own:
                continue
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in bare):
                return True
            if (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.value, ast.Name)
                    and node.value.id == layer):
                return True
    return False


def _public_methods(layer):
    """(Class.method, definition) for the public methods of every class of
    the layer, properties and class methods included."""
    return [("%s.%s" % (cls.name, node.name), node)
            for cls in TREES[layer].body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def _method_referenced(definition):
    own = set(ast.walk(definition))
    return any(isinstance(node, ast.Attribute)
               and node.attr == definition.name and node not in own
               for tree in TREES.values() for node in ast.walk(tree))


def _check_allowlist(unused, allowed):
    assert [name for name in unused if name not in allowed] == []
    # the allowlist names only definitions of the layer that are unused
    assert sorted(allowed) == [name for name in unused if name in allowed]


@pytest.mark.parametrize("layer", LAYERS)
def test_public_names_are_used_or_test_facing(layer):
    _check_allowlist(sorted(d.name for d in _public_definitions(layer)
                            if not _referenced(layer, d)),
                     TEST_FACING.get(layer, set()))


@pytest.mark.parametrize("layer", LAYERS)
def test_public_methods_are_used_or_test_facing(layer):
    _check_allowlist(sorted(name for name, d in _public_methods(layer)
                            if not _method_referenced(d)),
                     TEST_FACING_METHODS.get(layer, set()))


_PROBE = '''
def lonely(n):
    """lonely(n) calls itself; see used()."""
    return lonely(n - 1)

def used():
    pass

def caller():
    return used()
'''


def test_guard_reads_code_not_text(monkeypatch):
    # neither a docstring nor a recursive call counts; a call from
    # elsewhere does
    tree = ast.parse(_PROBE)
    monkeypatch.setitem(TREES, "probe", tree)
    assert [_referenced("probe", d) for d in tree.body] == [
        False, True, False]


_METHOD_PROBE = '''
class Box:
    def lonely(self):
        """lonely() calls itself; see used()."""
        return self.lonely()

    def used(self):
        pass

    @property
    def size(self):
        return 0


def caller(box):
    return box.used(), box.size
'''


def test_method_guard_reads_code_not_text(monkeypatch):
    tree = ast.parse(_METHOD_PROBE)
    monkeypatch.setitem(TREES, "probe", tree)
    assert [(name, _method_referenced(d))
            for name, d in _public_methods("probe")] == [
        ("Box.lonely", False), ("Box.used", True), ("Box.size", True)]
