"""Every public module-level function and class of a layer is used by the
package itself, or is library API that the tests check claims through.

References are read from the syntax tree, not the text, since docstrings
name functions: a name counts where it is loaded bare in its own layer or
in a module that imports it from there (``search_homs(...)``), or where
it is looked up on its layer (``braid.search_homs``), always outside its
own definition.
"""

import ast
from pathlib import Path

import pytest

import confspace

SRC = Path(confspace.__file__).resolve().parent
LAYERS = ("braid", "homology", "morphisms", "polyring", "ratios")

# library API without a caller in the package: the claims the tests check
# are stated through these names
TEST_FACING = {
    "braid": {
        "are_conjugate", "full_twist_word", "gorin_words", "is_transitive",
        "mu_image", "sphere_kernel_word", "verify_sym_hom", "word",
        "words_equal",
    },
    "ratios": {
        "act", "divides_oracle", "enumerate_punctured", "involution",
        "punctured_value",
    },
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


@pytest.mark.parametrize("layer", LAYERS)
def test_public_names_are_used_or_test_facing(layer):
    allowed = TEST_FACING.get(layer, set())
    unused = sorted(d.name for d in _public_definitions(layer)
                    if not _referenced(layer, d))
    assert [name for name in unused if name not in allowed] == []
    # the allowlist names only definitions of the layer that are unused
    assert sorted(allowed) == [name for name in unused if name in allowed]


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
