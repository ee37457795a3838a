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


def _imported_roots(paths) -> set[str]:
    """Root module of every absolute import in ``paths``, the standard library left out."""
    roots = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    return roots - set(sys.stdlib_module_names)


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


def _declared() -> dict[str, set[str]]:
    """The distribution names pyproject.toml declares: "runtime" and each extra."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    groups = {"runtime": project["dependencies"], **project["optional-dependencies"]}
    return {name: {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in specs} for name, specs in groups.items()}


def test_imports_match_declared_dependencies():
    names = _declared()["runtime"]
    assert _imported_roots(sorted((SRC / "dyckarea").glob("*.py"))) - {"dyckarea"} == names == {"numpy"}


def test_test_extras_are_the_oracle_and_test_tools():
    assert _declared()["test"] == {"mpmath", "pytest", "hypothesis"}


def test_no_scipy_and_numpy_only_in_the_kernel_pins():
    # every reference the tests compare against comes from tests/oracles.py;
    # numpy is left in the tests only where test_qseries.py pins the bits of
    # the pairwise continued-fraction kernel
    files = sorted(path for top in ("src", "tests", "tools") for path in (ROOT / top).rglob("*.py"))
    assert [path.name for path in files if "scipy" in _imported_roots([path])] == []
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert [path.stem for path in tests if "numpy" in _imported_roots([path])] == ["test_qseries"]


# tests/oracles.py stays importable where neither the package nor the test
# tools are: a reference builder outside the suite can share its oracles
def test_oracles_import_only_the_stdlib_and_mpmath():
    assert _imported_roots([ROOT / "tests" / "oracles.py"]) == {"mpmath"}


def test_oracles_load_neither_the_package_nor_the_test_tools(tmp_path):
    script = """
        import sys
        import oracles
        loaded = {name.split(".")[0] for name in sys.modules} & {"dyckarea", "pytest", "hypothesis", "numpy"}
        assert not loaded, loaded
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "tests"))
    res = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def _numpy_imports(tree: ast.AST) -> list[ast.stmt]:
    """Every import statement of numpy (or a numpy submodule) in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            found.append(node)
    return found


def test_numpy_stays_in_the_continued_fraction_kernel():
    # numpy is imported by qseries alone, once, inside the pairwise
    # continued-fraction kernel, and used only there
    importers = {path.stem for path in sorted((SRC / "dyckarea").glob("*.py"))
                 if _numpy_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert importers == {"qseries"}
    tree = ast.parse((SRC / "dyckarea" / "qseries.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    inside = {node.name: len(_numpy_imports(node)) for node in functions if _numpy_imports(node)}
    assert inside == {"_cfrac_pairwise": 1} and len(_numpy_imports(tree)) == 1
    users = {node.name for node in functions
             if any(isinstance(n, ast.Name) and n.id == "np" for n in ast.walk(node))}
    assert users == {"_cfrac_pairwise"}


# one op of every command, eval by every method and scan of every kind; the
# Airy scaling point s = 4.3 lies in the fixed-point Maclaurin tier
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


# one op of every command and eval method that runs no continued fraction,
# and the README commands whose continued fractions take the scalar loop
_NO_NUMPY_OPS = """
eval --t 0.2 --q 0.5 --method series
eval --t 0.2 --eps 0.05 --method ratio
eval --t 0.2 --eps 0.05 --method uniform
eval --t 0.2 --eps 0.01 --method scaling
scan --kind partition --t 0.24 --m-list 10 --out m.csv
enumerate --n-max 4 --verify-brute-force 4
scaling --s 0.5 --eps 0.01
partition --m 10 --t 0.2
eval --t 0.2 --q 0.5 --method cfrac
scan --kind g_vs_t --q 0.990049834 --t-min 0 --t-max 0.45 --steps 90 --out fig_g.csv
scan --kind phase_boundary --q-min 0.3 --q-max 0.99 --steps 20 --out boundary.csv
validate
"""


def test_start_up_loads_no_numpy(tmp_path):
    # in a fresh process: the package, --version, every command that runs no
    # continued fraction and the README commands on the scalar loop leave
    # numpy unloaded; the first pairwise kernel call (a chain too deep for
    # the scalar loop) loads it
    ops = [line.split() for line in _NO_NUMPY_OPS.strip().splitlines()]
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import dyckarea
        assert "numpy" not in sys.modules, "import dyckarea loaded numpy"
        from dyckarea import cli
        for argv in [["--version"]] + {ops!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            assert code == 0, (argv, code)
            assert "numpy" not in sys.modules, argv
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["eval", "--t", "0.25", "--eps", "1e-4", "--method", "cfrac"]) == 0
        assert "numpy" in sys.modules, "the pairwise kernel ran without numpy"
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def _fresh_process(tmp_path, script: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_datetime_only_for_stamped_scans(tmp_path):
    # in a fresh process: the CLI and every unstamped command above leave
    # datetime unloaded; the first --stamp scan loads it
    ops = [line.split() for line in _NO_NUMPY_OPS.strip().splitlines()]
    _fresh_process(tmp_path, f"""
        import contextlib, io, sys
        from dyckarea import cli
        assert "datetime" not in sys.modules, "import dyckarea.cli loaded datetime"
        for argv in {ops!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
            assert "datetime" not in sys.modules, argv
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main("scan --kind partition --t 0.24 --m-list 10 --out s.csv --stamp".split()) == 0
        assert "datetime" in sys.modules, "a stamped scan ran without datetime"
    """)


def test_partition_computes_no_zeta_sum(tmp_path):
    # in a fresh process, partition and the partition scan compute one Airy
    # zero at most (phi's ratio bound), call no airy_zeta and build only the
    # Riccati coefficients their sums read; scaling's series, which still
    # reads airy_zeta, builds all 400 zeros
    _fresh_process(tmp_path, """
        import contextlib, io
        from dyckarea import cli, special_functions as sf
        for argv in ("partition --m 40 --t 0.2286", "scan --kind partition --t 0.24 --m-list 20,40,80 --out qm.csv"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv.split()) == 0, argv
            assert sf._airy_zero.cache_info().currsize <= 1, argv
            assert sf.airy_zeta.cache_info().currsize == 0, argv
            assert sf._riccati_coefficient.cache_info().currsize <= 40, argv
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["scaling", "--s", "0.5"]) == 0
        assert sf._airy_zero.cache_info().currsize == 400
    """)
