"""The runtime needs only the dependencies ``pyproject.toml`` declares:
the package imports nothing else, and mpmath serves the tests alone."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _imported_roots() -> set[str]:
    """Root module of every absolute import in ``src/dyckarea/*.py``."""
    roots = set()
    for path in sorted((SRC / "dyckarea").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    return roots - set(sys.stdlib_module_names) - {"dyckarea"}


# a module imports only from modules of a lower rank
_LAYERS = {"errors": 0, "enumeration": 1, "special_functions": 1,
           "qseries": 2, "asymptotics": 3, "datasets": 4, "cli": 5, "__main__": 6}


def test_relative_imports_go_down_the_layers():
    # every ``from .x import`` in the package, inside functions too;
    # ``from . import __version__`` reads the package's version constant
    upward = []
    for path in sorted((SRC / "dyckarea").glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:
                    assert [alias.name for alias in node.names] == ["__version__"], path.stem
                elif _LAYERS[node.module] >= _LAYERS[path.stem]:
                    upward.append(f"{path.stem} imports {node.module} (line {node.lineno})")
    assert not upward


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in declared}
    assert _imported_roots() == names == {"numpy"}


def test_numpy_stays_in_the_continued_fraction_kernel():
    # numpy is imported by qseries alone, and used there only by the
    # continued-fraction kernel
    importers = set()
    for path in sorted((SRC / "dyckarea").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.stem)
    assert importers == {"qseries"}
    tree = ast.parse((SRC / "dyckarea" / "qseries.py").read_text(encoding="utf-8"))
    users = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
             and any(isinstance(n, ast.Name) and n.id == "np" for n in ast.walk(node))}
    assert users <= {"_cfrac_scalar", "_cfrac_pairwise", "_at_tail_one"}


# one op of every command, eval by every method and scan of every kind; the
# Airy scaling point s = 4.3 lies in the guarded Maclaurin tier
_OPS = """
eval --t 0.2 --q 0.5 --method series
eval --t 0.2 --eps 0.05 --method ratio
eval --t 0.2 --q 0.5 --method cfrac
eval --t 0.2 --eps 0.05 --method uniform
eval --t 0.2 --eps 0.01 --method scaling
scan --kind g_vs_t --q 0.9 --steps 3 --out g.csv
scan --kind phase_boundary --q-min 0.5 --q-max 0.6 --steps 2 --out p.csv
scan --kind scaling_fn --eps-list 1e-2 --steps 3 --out s.json --format json
scan --kind partition --t 0.24 --m-list 10 --out m.csv
enumerate --n-max 4 --verify-brute-force 4
scaling --s 0.5 --eps 0.01
partition --m 10 --t 0.2
validate
"""


def test_cli_never_imports_mpmath(tmp_path):
    ops = [line.split() for line in _OPS.strip().splitlines()]
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from dyckarea import cli
        for argv in {ops!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            assert code == 0, (argv, code)
        assert "mpmath" not in sys.modules, "mpmath imported"
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
