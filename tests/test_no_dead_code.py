"""Every runtime definition must have a caller that the program or the benchmark reaches.

A top-level function or class, or a method that is not a dunder, defined in
``src/cycover/`` is live when its name appears somewhere other than inside
its own definition: as an ``ast.Name`` or ``ast.Attribute`` in
``src/cycover/``, in ``cycbench/*.py`` or in ``tests/corpus.py`` (which the
benchmark loads), or as an attribute string in ``cycbench/tracer.py``
``LAYERS``, which the tracer rebinds by name.  Names in ``cycover.__all__``
are exempt.  The names that only ``LAYERS`` keeps alive are pinned, so no
other definition can live for the tracer alone, and so are those that only
``cycbench/`` keeps alive, so no other definition can live for the
benchmark alone.  References from the test suite do not count: a helper
that only tests reach belongs in ``tests/oracles.py``.

The check matches by bare name, not by resolved binding, so a dead
definition escapes it when a live one elsewhere shares its name.
``LaurentPoly.derivative`` once escaped through ``_intfactor.derivative``
and ``FiniteGroup.inverse`` through ``FreeWord.inverse``; such cases still
need a reader's eye.
"""

import ast
import importlib.util
from pathlib import Path

import cycover

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cycover"
BENCH = ROOT / "cycbench"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, bare name, first line, last line) of each checked definition."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if not isinstance(node, defs) or _is_dunder(node.name):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs) and not _is_dunder(sub.name):
                    yield f"{node.name}.{sub.name}", sub.name, sub.lineno, sub.end_lineno


def _references(tree):
    """(bare name, line) of every Name and Attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _layer_names():
    """Every dotted part of the attributes that the benchmark's tracer rebinds."""
    spec = importlib.util.spec_from_file_location("_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {part for _, attr, _, _ in tracer.LAYERS for part in attr.split(".")}


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def unreferenced_definitions(layers_exempt=True, bench=True):
    """The definitions named nowhere outside their own bodies; with bench
    false, references from ``cycbench/`` and its ``LAYERS`` do not count."""
    src = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    readers = [*(sorted(BENCH.glob("*.py")) if bench else ()), ROOT / "tests" / "corpus.py"]
    refs = {}  # bare name -> [(path, line)] of its references
    for path, tree in [*src.items(), *((path, _parse(path)) for path in readers)]:
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    exempt = set(cycover.__all__) | (_layer_names() if layers_exempt and bench else set())

    dead = []
    for path, tree in src.items():
        for qualname, name, first, last in _definitions(tree):
            if name in exempt:
                continue
            if not any(p != path or not first <= line <= last for p, line in refs.get(name, ())):
                dead.append(f"{path.stem}.{qualname}")
    return dead


def test_every_definition_is_reached_by_the_program_or_the_benchmark():
    dead = unreferenced_definitions()
    assert not dead, "named nowhere outside their own bodies:\n  " + "\n  ".join(dead)


def test_only_the_known_names_live_for_the_tracer_alone():
    # The tracer rebinds these by name, and nothing else calls them; any
    # other name kept alive by LAYERS alone would be dead code.
    assert sorted(unreferenced_definitions(layers_exempt=False)) == [
        "alexander.fox_derivative_abelianized",
        "criteria.classify_prime",
        "criteria.count_prime_index",
        "laurent.exact_div",
    ]


def test_only_the_known_names_live_for_the_benchmark_alone():
    # The program never reads these: only cycbench/ does, through LAYERS or
    # its own modules.  A shift graph's per-state views are among them, so
    # no census, count or periodic walk reads a per-state view.
    assert sorted(unreferenced_definitions(layers_exempt=False, bench=False)) == [
        "alexander.fox_derivative_abelianized",
        "criteria.classify_prime",
        "criteria.count_prime_index",
        "laurent.exact_div",
        "recurrence.minimal_recurrence",
        "recurrence.propagate",
        "recurrence.witness_sequence",
        "repshift.SftGraph.essential",
        "repshift.SftGraph.successors",
    ]
