"""The public API: what each module exports, and what was removed from it."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import twa
from twa.automaton import _SubsetNfa
from twa.semiring import Semiring

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


def _modules_after(statement, *flags):
    """The modules a fresh interpreter, started with ``flags``, holds after
    ``statement``, with this twa first on its path."""
    env = dict(os.environ)
    src = str(pathlib.Path(twa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = f"import sys\n{statement}\nprint(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, check=True)
    return set(ast.literal_eval(proc.stdout))


def test_import_loads_only_the_code_it_runs():
    # dataclasses pulls in inspect, ast, dis and tokenize; the brute-force
    # oracle is imported by the commands that call it.  The difference from
    # a bare interpreter leaves out whatever site preloads.
    bare = _modules_after("pass")
    for statement in ("import twa", "import twa.cli"):
        added = _modules_after(statement) - bare
        assert "twa.decisions" in added, statement
        assert added.isdisjoint({"dataclasses", "inspect", "twa.oracle"}), (statement, sorted(added))
    assert "twa.oracle" in _modules_after("import twa\nfrom twa import oracle")
    # without site, which may preload it, typing would be a fifth of the import
    assert "typing" not in _modules_after("import twa.cli", "-S")


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
        "_mask",
        "_bits",
        "_MaskNfa",
        "TropicalMatrix",
        "vec_mat",
        "PositiveCycleError",
        "_nonpositive_potential",
        "_potential",
        "_fatou_trimmed",
        "oplus",
        "otimes",
        "negate_weight",
        "Weight",
        "_MaxPlus",
        "_MinPlus",
    ],
)
def test_retired_names_are_gone(name):
    assert name not in twa.__all__
    for module in ["twa", *MODULES]:
        assert not hasattr(importlib.import_module(module), name), module


@pytest.mark.parametrize(
    "owner, name",
    [
        (twa.WeightedAutomaton, "support"),
        (twa.WeightedAutomaton, "_support_masks"),
        (twa.MAX_PLUS, "times"),
        (twa.MAX_PLUS, "one"),
        (twa.MAX_PLUS, "is_weight"),
        (twa.MIN_PLUS, "times"),
        (twa.MIN_PLUS, "one"),
        (twa.MIN_PLUS, "is_weight"),
        (_SubsetNfa, "compare"),
    ],
    ids=[
        "WeightedAutomaton.support", "WeightedAutomaton._support_masks",
        "MAX_PLUS.times", "MAX_PLUS.one", "MAX_PLUS.is_weight",
        "MIN_PLUS.times", "MIN_PLUS.one", "MIN_PLUS.is_weight",
        "_SubsetNfa.compare",
    ],
)
def test_retired_methods_are_gone(owner, name):
    assert not hasattr(owner, name)


# each module may import only the ones before it: twa.automaton, the base of
# every algorithm, sits below the cycle means and the decisions
LAYERS = [
    "errors", "semiring", "automaton", "spectral", "decisions",
    "disambiguation", "format", "oracle", "zoo", "cli",
]


def test_each_module_imports_only_the_layers_below_it():
    package = pathlib.Path(twa.__file__).parent
    assert sorted(LAYERS) == sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    upward = [
        f"{name} imports {target}"
        for name in LAYERS
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for target in ([node.module] if node.module else [alias.name for alias in node.names])
        if LAYERS.index(target) >= LAYERS.index(name)
    ]
    assert upward == []


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


def test_tags_are_compared_by_identity():
    # semiring_for leaves only the two singletons, so a module other than
    # twa.semiring tests a tag with `is MAX_PLUS`, never by its string
    package = pathlib.Path(twa.__file__).parent
    string_tests = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "semiring.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        for operand in [node.left, *node.comparators]
        if isinstance(operand, ast.Constant) and operand.value in ("max-plus", "min-plus")
    ]
    assert string_tests == []


def test_the_semiring_is_one_class_of_two_instances():
    # a tag and its addition: both semirings multiply by rational +
    for module in MODULES:
        importlib.import_module(module)
    methods = {name for name, value in vars(Semiring).items() if callable(value)}
    assert methods == {"__init__", "plus", "__repr__"}
    assert Semiring.__subclasses__() == []
    assert type(twa.MAX_PLUS) is Semiring and type(twa.MIN_PLUS) is Semiring


def _names_the_row_holder(node) -> bool:
    # _Rows(...), an import of _Rows, or any other mention of the name
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "_Rows" for alias in node.names)
    return (isinstance(node, ast.Name) and node.id == "_Rows") or (
        isinstance(node, ast.Attribute) and node.attr == "_Rows"
    )


def test_only_the_automaton_and_spectral_modules_build_matrices():
    # how a letter's rows are held is twa.automaton's business: every other
    # construction hands its row lists to WeightedAutomaton._adopt, and the
    # holder is built in one place, WeightedAutomaton._take
    package = pathlib.Path(twa.__file__).parent
    mentions = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "automaton.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _names_the_row_holder(node)
    ]
    assert mentions == []
    tree = ast.parse((package / "automaton.py").read_text(encoding="utf-8"))
    builders = [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and _names_the_row_holder(node.func)
    ]
    assert builders == ["_take"]


def _slot_writes(tree, slots) -> tuple:
    # (writes inside WeightedAutomaton._take, lines of the writes elsewhere):
    # an assignment to, or a deletion of, an attribute named after a slot
    take = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "WeightedAutomaton"
        for func in cls.body
        if isinstance(func, ast.FunctionDef) and func.name == "_take"
        for node in ast.walk(func)
    }
    writes = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in slots and not isinstance(node.ctx, ast.Load)
    ]
    inside = {node.attr for node in writes if id(node) in take}
    return inside, [node.lineno for node in writes if id(node) not in take]


def test_only_take_sets_an_automatons_slots():
    # automata are immutable after construction: WeightedAutomaton._take sets
    # every slot, and no other code of the package assigns one, so no
    # construction labels or edits an automaton once it is built
    package = pathlib.Path(twa.__file__).parent
    slots = set(twa.WeightedAutomaton.__slots__)
    set_by_take, elsewhere = set(), []
    for path in sorted(package.glob("*.py")):
        inside, lines = _slot_writes(ast.parse(path.read_text(encoding="utf-8")), slots)
        set_by_take |= inside
        elsewhere += [f"{path.name}:{line}" for line in lines]
    assert set_by_take == slots
    assert elsewhere == []


def _rows_as_the_benchmark_reads_them(aut) -> bool:
    # bench/ reads aut.mu[ch].rows: a list of aut.n row dicts, on a holder of nothing else
    return all(
        type(aut.mu[ch].rows) is list
        and len(aut.mu[ch].rows) == aut.n
        and all(type(row) is dict for row in aut.mu[ch].rows)
        and type(aut.mu[ch]).__slots__ == ("rows",)
        and not hasattr(aut.mu[ch], "__dict__")
        for ch in aut.alphabet
    )


def test_every_construction_keeps_mu_rows_readable():
    amax, bmin = twa.zoo.sample_equivalent_pair()
    det = twa.WeightedAutomaton.from_arcs(
        twa.MAX_PLUS, "ab", 2, initial=[(0, 0)], final=[(1, 0)],
        arcs=[(0, "a", 1, 1), (1, "b", 0, 2), (1, "a", 1, 0)],
    )
    det_min = twa.WeightedAutomaton(twa.MIN_PLUS, det.alphabet, det.n, det.alpha, det.beta, det.mu)
    untrimmed = twa.WeightedAutomaton.from_arcs(
        twa.MAX_PLUS, "ab", 3, initial=[(0, 0)], final=[(0, 0)], arcs=[(0, "a", 1, 0), (2, "b", 0, 0)]
    )
    difference = twa.hadamard(amax, bmin.negate())
    deterministic = twa.unambiguous_from_pair(det, det_min)
    covered = twa.unambiguous_from_pair(amax, bmin)
    # one output of each branch: a deterministic one, and the 7-state covering
    assert sum(w is not None for w in deterministic.alpha) == 1
    assert all(len(row) <= 1 for mat in deterministic.mu.values() for row in mat.rows)
    assert covered.n == 7 and twa.extract_one_valued(amax, bmin).n == 4
    built = {
        "parse": twa.parse(twa.serialize(amax)),
        "from_arcs": amax,
        "WeightedAutomaton": twa.WeightedAutomaton(twa.MAX_PLUS, "a", 1, [0], [0], {"a": [{0: -1}]}),
        "trim": untrimmed.trim(),
        "negate": bmin.negate(),
        "hadamard": difference,
        "fatou_normalize": twa.fatou_normalize(difference),
        "extract_one_valued": twa.extract_one_valued(amax, bmin),
        "unambiguous_from_pair, deterministic": deterministic,
        "unambiguous_from_pair, covering": covered,
    }
    assert built["trim"].n == 1
    for name, aut in built.items():
        assert aut.n > 0 and _rows_as_the_benchmark_reads_them(aut), name


SUBSET_HELPERS = {"_post"}


def _touches_a_subset(node) -> bool:
    # a shift or a bitwise and, an import of a subset helper, or a bare _SubsetNfa(...)
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, (ast.LShift, ast.RShift, ast.BitAnd))
    if isinstance(node, ast.ImportFrom):
        return any(alias.name in SUBSET_HELPERS for alias in node.names)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "_SubsetNfa"
    return False


def test_only_the_automaton_module_reads_subset_masks():
    # how a subset is stored is twa.automaton's business: every other module
    # builds its NFAs with _SubsetNfa.of and asks _SubsetNfa its questions
    package = pathlib.Path(twa.__file__).parent
    touches = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "automaton.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _touches_a_subset(node)
    ]
    assert touches == []
