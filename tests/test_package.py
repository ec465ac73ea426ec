"""The library holds only what the pipeline runs; test-only code lives in the tests."""

import ast
import importlib
import json
import pathlib
import re

import protocurate

PACKAGE = pathlib.Path(protocurate.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BENCHMARK = README.with_name("BENCHMARK.json")


def library_use_names() -> set[str]:
    """Identifiers in the code spans and blocks of README's "Library use" section."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = re.findall(r"```.*?```|`[^`\n]+`", section, flags=re.S)
    return {name for span in code for name in re.findall(r"[A-Za-z_]\w*", span)}


def _uses(node: ast.AST):
    """``node`` and everything under it, like ``ast.walk``, but no annotation:
    every module defers them, so a name in one is never evaluated."""
    yield node
    for field, value in ast.iter_fields(node):
        if field not in ("annotation", "returns"):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from _uses(child)


def scan_package(package: pathlib.Path):
    """Top-level functions and classes of each module, and where each is used.

    Returns ``(defs, refs)``: ``defs`` is the set of ``(module, name)``
    pairs, and ``refs[d]`` the set of places that use ``d``: the top-level
    definition whose body holds the use, or ``(module, None)`` for module
    level code.  A name counts wherever it resolves to ``d``, through
    ``from .module import name`` or ``module.name``; the import alone does not,
    nor does an annotation.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    defs = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    refs: dict[tuple, set] = {d: set() for d in defs}
    for module, tree in trees.items():
        names = {name: (module, name) for mod, name in defs if mod == module}
        modules = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = node.module or ""
            if node.level == 0 and source.startswith(f"{package.name}."):
                source = source[len(package.name) + 1 :]
            elif node.level == 0 or node.level > 1:
                continue
            for alias in node.names:
                if source == "" and alias.name in trees:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (source, alias.name)
        for top in tree.body:
            place = (module, getattr(top, "name", None))
            place = place if place in defs else (module, None)
            for node in _uses(top):
                if isinstance(node, ast.Name):
                    target = names.get(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    target = (modules.get(node.value.id), node.attr)
                else:
                    continue
                if target in refs and target != place:
                    refs[target].add(place)
    return defs, refs


def unused_definitions(package: pathlib.Path, entry_points: set[str]) -> list[str]:
    """Definitions no live library code uses, iterated to a fixed point, so a
    name used only by unused definitions is unused too."""
    defs, refs = scan_package(package)
    dead: set = set()
    while True:
        newly = {
            d
            for d in defs - dead
            if d[1] not in entry_points and d != ("cli", "main") and not refs[d] - dead
        }
        if not newly:
            return sorted(f"{module}.{name}" for module, name in dead)
        dead |= newly


def test_every_definition_has_a_library_caller():
    """Each top-level function or class is used by live library code, or is an
    entry point: ``cli.main`` or a name README's "Library use" section documents.
    Oracles and helpers that only the tests call belong in ``tests/oracles.py``."""
    assert unused_definitions(PACKAGE, library_use_names()) == []


def test_one_id_to_row_lookup():
    """The selection reader is the one library code that maps ids to corpus rows."""
    _, refs = scan_package(PACKAGE)
    assert refs[("io", "rows_for_ids")] == {("curation", "CuratedSelection")}


def test_one_corpus_check():
    """A corpus is checked once, where it is read: no stage re-checks its rows."""
    _, refs = scan_package(PACKAGE)
    assert refs[("io", "validate_corpus")] == {("io", "read_corpus")}


def test_one_input_file_reader():
    """Every file the engine reads goes through ``io.input_file``: only ``io``
    calls the ``open`` builtin or handles a ``UnicodeDecodeError``, and the
    five readers are the places that use ``input_file``."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    opens = {
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"
    }
    decode_handlers = {
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for name in ast.walk(node.type)
        if isinstance(name, ast.Name) and name.id == "UnicodeDecodeError"
    }
    assert opens == {"io"}
    assert decode_handlers == {"io"}
    _, refs = scan_package(PACKAGE)
    assert refs[("io", "input_file")] == {
        ("io", "read_corpus"),
        ("trainer", "load_head"),
        ("curation", "CuratedSelection"),
        ("synth", "read_prompts"),
        ("config", "load_config"),
    }


def test_one_trainer_setup():
    """The head and its optimizer are built in one place, for both training modes."""
    _, refs = scan_package(PACKAGE)
    assert refs[("trainer", "init_head")] == {("trainer", "_trainer")}
    assert refs[("trainer", "OptimizerState")] == {("trainer", "_trainer")}


def test_no_parameter_default_but_none():
    """``EngineConfig`` states every setting once: no library parameter has a
    default of its own, only ``None`` for "not given"."""
    defaulted = [
        f"{path.stem}.{getattr(node, 'name', 'lambda')}: {ast.unparse(default)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for default in node.args.defaults + node.args.kw_defaults
        if default is not None
        and not (isinstance(default, ast.Constant) and default.value is None)
    ]
    assert defaulted == []


def test_synth_seeds_one_generator():
    """The corpus and its prompts come from one draw: the one generator the
    synth module makes is seeded in ``generate_corpus``."""
    tree = ast.parse((PACKAGE / "synth.py").read_text())
    seeded = [
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, (ast.Attribute, ast.Name))
        and "default_rng" in (getattr(node, "attr", None), getattr(node, "id", None))
    ]
    assert seeded == ["generate_corpus"]


def test_scan_follows_imports_and_dead_callers(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def only_dead():\n    return 2\n\n\n"
        "def dead():\n    return only_dead()\n\n\n"
        "def recursive():\n    return recursive()\n\n\n"
        "class Hint:\n    pass\n"
    )
    (package / "b.py").write_text(
        "from . import a\nfrom .a import used as alias, recursive\n\n\n"
        "def main(x: a.Hint) -> a.Hint:\n    return alias() + a.used()\n\n\n"
        "VALUE = main(None)\n"
    )
    dead = ["a.Hint", "a.dead", "a.only_dead", "a.recursive"]
    assert unused_definitions(package, set()) == dead
    assert unused_definitions(package, {"dead", "Hint"}) == ["a.recursive"]


def test_benchmark_span_names_resolve():
    """Each per-layer time or call count the benchmark reports is read from a
    span named after a library function or method; renaming or deleting one
    would make the traced benchmark run fail, so it fails here first."""
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    spans = [
        match.group(1).split(".")
        for name in names
        if not name.startswith("cli.")
        for match in [re.fullmatch(r"(\w+\.\w+(?:\.\w+)?)\.(?:s|self_s|calls)", name)]
        if match
    ]
    assert spans, "no per-layer span name matched"
    missing = []
    for module, *path in spans:
        obj = importlib.import_module(f"protocurate.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(".".join([module, *path]))
    assert missing == []
