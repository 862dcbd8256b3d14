"""Reference code stays off the production import path.

``mixedstate`` (the trace formulas, the Gram-Schmidt basis, the permanent)
and ``oracle`` (the Fock-space simulator) check the production modules; a
production module that imported them would no longer be checked by an
independent path.  The oracle in turn takes only the network type and the
engine's entry point from ``interference``, so it shares no sum or
occupation table with the engine it checks.  The package namespace binds no
reference name either: reference code is imported from its module.
jsonschema, the reference of the package's config checker, is a test
dependency only: loading a configuration imports none of it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triphoton

PACKAGE = Path(triphoton.__file__).resolve().parent
REFERENCE = {"mixedstate", "oracle"}


def imported_names(path: Path) -> set[str]:
    """Dotted names of every module and name an import statement in ``path`` binds."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def defined_names(path: Path) -> set[str]:
    """Names the top-level functions, classes and assignments of ``path`` define."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", ["interference", "experiment", "modes", "source"])
def test_production_module_imports_no_reference_code(module):
    names = imported_names(PACKAGE / f"{module}.py")
    offending = sorted(n for n in names if REFERENCE & set(n.split(".")))
    assert not offending, f"{module} imports reference code: {offending}"


def test_oracle_takes_only_network_and_entry_point_from_interference():
    names = imported_names(PACKAGE / "oracle.py")
    taken = {n for n in names if "interference" in n.split(".")}
    assert taken == {"interference", "interference.Network", "interference.event_distribution"}


def test_package_namespace_binds_no_reference_name():
    reference = set().union(*(defined_names(PACKAGE / f"{m}.py") for m in REFERENCE))
    reference |= {"enumerate_terms", "EmissionTerm"}
    bound = sorted(reference & set(vars(triphoton)))
    assert not bound, f"the package namespace binds reference names: {bound}"


def test_loading_a_config_imports_no_jsonschema():
    config = Path(__file__).resolve().parent / "corpus" / "ideal-dynamic-triad.json"
    script = (
        "import sys\n"
        "from triphoton.cli import load_config\n"
        f"load_config({str(config)!r})\n"
        "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
