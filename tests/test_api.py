"""The public API: what each module exports, and what was removed from it."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import twa

MODULES = sorted(
    f"twa.{info.name}" for info in pkgutil.iter_modules(twa.__path__) if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"{name}.__all__ names missing {export!r}"


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse(pathlib.Path(twa.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert len(twa.__all__) == len(set(twa.__all__))
    assert set(twa.__all__) == imported


@pytest.mark.parametrize(
    "name",
    [
        "boolean_monoid_closure",
        "pair_product",
        "MAX_PLUS_PAIR",
        "DEFAULT_MONOID_CAP",
        "parse_weight",
        "format_weight",
        "BOOLEAN",
        "boolean_projection",
        "_karp_component",
        "_strongly_connected_components",
        "_find_critical_cycle",
        "mat_mul",
        "mat_add",
        "_check_compatible",
        "mat_star",
        "star_vector",
        "_star_rounds",
        "BooleanAutomaton",
        "nfa_equivalence",
        "nfa_inclusion",
        "_nfa_compare",
        "determinize",
        "_backtrack_word",
        "_compare",
        "_determinize_subsets",
        "_zero_masks",
    ],
)
def test_retired_names_are_gone(name):
    assert name not in twa.__all__
    for module in ["twa", *MODULES]:
        assert not hasattr(importlib.import_module(module), name), module


@pytest.mark.parametrize(
    "owner, name",
    [(twa.WeightedAutomaton, "support"), (twa.TropicalMatrix, "identity")],
    ids=["WeightedAutomaton.support", "TropicalMatrix.identity"],
)
def test_retired_methods_are_gone(owner, name):
    assert not hasattr(owner, name)


def _holds_both_tags(node) -> bool:
    strings = {elt.value for elt in node.elts if isinstance(elt, ast.Constant)}
    return {"max-plus", "min-plus"} <= strings


def test_only_the_semiring_module_spells_out_the_tags():
    # the tag set lives in twa.semiring.SEMIRINGS; any other module that
    # lists both tags keeps a second copy of it
    package = pathlib.Path(twa.__file__).parent
    copies = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "semiring.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and _holds_both_tags(node)
    ]
    assert copies == []


def _builds_a_matrix(node) -> bool:
    # TropicalMatrix(...), or a classmethod such as TropicalMatrix._adopt(...)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        func = func.value
    return isinstance(func, ast.Name) and func.id == "TropicalMatrix"


def test_only_the_automaton_and_spectral_modules_build_matrices():
    # how a letter's transitions are stored is twa.automaton's business:
    # every other construction hands its rows to WeightedAutomaton._adopt
    package = pathlib.Path(twa.__file__).parent
    builds = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name not in ("automaton.py", "spectral.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _builds_a_matrix(node)
    ]
    assert builds == []


MASK_HELPERS = {"_mask", "_bits", "_post"}


def _touches_a_mask(node) -> bool:
    # a shift or a bitwise and, an import of a mask helper, or a bare _MaskNfa(...)
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, (ast.LShift, ast.RShift, ast.BitAnd))
    if isinstance(node, ast.ImportFrom):
        return any(alias.name in MASK_HELPERS for alias in node.names)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "_MaskNfa"
    return False


def test_only_the_automaton_module_reads_subset_masks():
    # how a subset is stored is twa.automaton's business: every other module
    # builds its NFAs with _MaskNfa.of and asks _MaskNfa its questions
    package = pathlib.Path(twa.__file__).parent
    touches = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "automaton.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _touches_a_mask(node)
    ]
    assert touches == []
