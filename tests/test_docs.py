"""The documentation contract of ``src/roclab``, read in one tokenize and
AST pass over its modules: every exported name has a docstring, every
``BENCH_<n>.json`` the source names exists at the repository root, and
every fork floor's comment names the one that holds its measurement."""

import ast
import io
import os
import re
import tokenize

import pytest

import roclab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "roclab")
BENCH = re.compile(r"BENCH_\d+\.json")


def _read_modules():
    """Per module: its top-level docstrings by name (an alias ``A = B``
    maps to ``B``, which may come from another module), the BENCH files
    named in its comments and strings, and the comment block above each
    top-level ``_FORK_*`` assignment."""
    modules = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            text = fh.read()
        tree = ast.parse(text)
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
        comments = {t.start[0]: t.string for t in tokens if t.type == tokenize.COMMENT}
        named = {m for t in tokens if t.type in (tokenize.COMMENT, tokenize.STRING)
                 for m in BENCH.findall(t.string)}
        docs, forks = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                docs[node.name] = ast.get_docstring(node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(node.value, ast.Name):
                    docs[target.id] = node.value
                if target.id.startswith("_FORK_"):
                    line, block = node.lineno - 1, []
                    while line in comments:
                        block.insert(0, comments[line])
                        line -= 1
                    forks[target.id] = " ".join(block)
        modules[name[:-3]] = {"docs": docs, "bench": named, "forks": forks}
    return modules


MODULES = _read_modules()


@pytest.mark.parametrize("name", roclab.__all__)
def test_every_exported_name_has_a_docstring(name):
    doc = MODULES[roclab._HOMES[name]]["docs"].get(name)
    if isinstance(doc, ast.Name):
        doc = next(m["docs"][doc.id] for m in MODULES.values() if doc.id in m["docs"])
    assert doc and doc.strip(), f"roclab.{name} has no docstring"


def test_every_named_bench_file_exists():
    named = set().union(*(m["bench"] for m in MODULES.values()))
    assert named, "the source names no BENCH file"
    missing = sorted(f for f in named if not os.path.exists(os.path.join(ROOT, f)))
    assert missing == []


def test_every_fork_floor_names_its_measurement():
    forks = {f"{module}.{name}": comment for module, m in MODULES.items()
             for name, comment in m["forks"].items()}
    assert len(forks) == 4
    assert {name: len(BENCH.findall(comment)) for name, comment in forks.items()} == \
        dict.fromkeys(forks, 1)
