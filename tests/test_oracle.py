"""The dense reference route is one leaf module, `fockstab.oracle`: it imports
only `errors`, `fock` and `dynamics`, and no other module defines its names or
imports them, apart from the re-exports that older callers read."""

import ast
from pathlib import Path

from fockstab import kraus, lyapunov, oracle, thermal

PACKAGE = Path(oracle.__file__).parent
RE_EXPORTS = {"kraus": {"apply_map", "kraus_deviation"}, "lyapunov": {"lyapunov_decrement"},
              "thermal": {"steady_state", "decoherence_step"}}


def parse(path):
    """(top-level names defined, {module: names} of the package imports) of a
    source file; `from . import x` counts under "", `import fockstab.x` under
    its dotted name."""
    tree = ast.parse(path.read_text())
    defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)}
    imports = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.level or n.module.startswith("fockstab")):
            imports.setdefault(n.module or "", set()).update(a.name for a in n.names)
        elif isinstance(n, ast.Import):
            imports.update({a.name: set() for a in n.names if a.name.startswith("fockstab")})
    return defined, imports


def test_oracle_is_a_leaf_and_the_re_exports_are_its_objects():
    oracle_names, oracle_imports = parse(PACKAGE / "oracle.py")
    assert set(oracle_imports) == {"errors", "fock", "dynamics"}
    for module in (kraus, lyapunov, thermal):
        for name in RE_EXPORTS[module.__name__.rpartition(".")[2]]:
            assert getattr(module, name) is getattr(oracle, name), name
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "oracle.py":
            defined, imports = parse(path)
            assert not defined & oracle_names, path.name
            assert imports.get("oracle", set()) == RE_EXPORTS.get(path.stem, set()), path.name
            # the rows of `fockstab validate` are the one production caller
            assert ("oracle" in imports.get("", set())) == (path.stem == "validation"), path.name


def test_runners_and_emitters_import_no_oracle():
    # they hold production code only; the checks that read the dense route
    # are `validation`, which neither imports
    for stem in ("experiments", "output"):
        _, imports = parse(PACKAGE / f"{stem}.py")
        for name in ("oracle", "validation"):
            assert not any(name in module for module in imports), (stem, name)
            assert name not in imports.get("", set()), (stem, name)
