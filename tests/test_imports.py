"""What the package imports.

A static check over ``src/selfscore/*.py``: a name a module imports at top
level must appear in its code or in an annotation (the modules use
``from __future__ import annotations``, and some annotations are strings).
A run of every command with scipy blocked: the package needs numpy only.
And the modules a command loads: each imports only those it runs.  Only
``grid`` formats and writes a file: no other module calls the atomic
writer, ``json.dumps`` or ``csv.writer``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfscore

MODULES = sorted(Path(selfscore.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def names_in(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, string annotations included."""
    used = names_in(tree)
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= names_in(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert unused == {}, f"{path.name}: unused imports {unused}"


NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
from selfscore.cli import main

d = sys.argv[1]


def ok(*argv):
    assert main(list(argv)) == 0, argv


ok("synth", "--rows", "24", "--cols", "24", "--count", "2", "--out-dir", d, "--blur-r", "1")
for spec in ("nbhd_max_r2", "nbhd_mean_r1", "F0.1-inf", "W0-0.2"):
    ok("filter", "--spec", spec, f"{d}/prob_000.grid", f"{d}/f_{spec}.grid")
ok("score", "--pred", f"a={d}/prob_*.grid", "--pred", f"b={d}/mask_*.grid",
   "--obs", f"{d}/mask_*.grid", "--all-336", "--out", f"{d}/scores.csv")
ok("rank", "--scores", f"{d}/scores.csv", "--out-dir", f"{d}/rank")
ok("eval", "--pred", f"{d}/prob_*.grid", "--obs", f"{d}/mask_*.grid",
   "--compare", f"{d}/mask_*.grid", "--n-boot", "50", "--out-dir", f"{d}/eval")
ok("gradcheck", "--specs", "fss_nbhd_r2,csi_nbhd_r1,brier_F0.1-inf,xent_W0-0.2",
   "--rows", "8", "--cols", "8")
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod]
assert loaded == [], loaded
"""


def run_script(script: str, *args: str, cwd=None) -> str:
    """Run ``script`` in a fresh interpreter that imports this selfscore;
    its standard output."""
    src = Path(selfscore.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_command_runs_without_scipy(tmp_path):
    run_script(NO_SCIPY_SCRIPT, str(tmp_path))


LOADED_SCRIPT = """
import json, sys
from selfscore.cli import main

assert main(json.loads(sys.argv[1])) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("selfscore.", "concurrent.")))))
"""


def loaded_by(argv: list[str], cwd) -> set[str]:
    """The selfscore and concurrent modules a fresh interpreter holds after
    ``main(argv)``."""
    return set(json.loads(run_script(LOADED_SCRIPT, json.dumps(argv), cwd=cwd).splitlines()[-1]))


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    synth = loaded_by(["synth", "--rows", "24", "--cols", "24", "--count", "2",
                       "--out-dir", "d", "--blur-r", "1"], tmp_path)
    assert synth == {"selfscore.cli", "selfscore.grid", "selfscore.synthetic",
                     "selfscore.neighbourhood"}
    evaluated = loaded_by(["eval", "--pred", "d/prob_*.grid", "--obs", "d/mask_*.grid",
                           "--n-boot", "5", "--n-boot-bars", "5", "--out-dir", "r"], tmp_path)
    assert "selfscore.evaluation" in evaluated
    assert evaluated.isdisjoint({f"selfscore.{m}" for m in
                                 ("losses", "fourier", "wavelet", "ranking", "synthetic")})
    # The CSV writer is grid's: neither score nor rank loads the diagnostics.
    scored = loaded_by(["score", "--pred", "d/prob_*.grid", "--obs", "d/mask_*.grid",
                        "--specs", "brier_nbhd_r1,fss_F0.1-inf", "--out", "s.csv"], tmp_path)
    ranked = loaded_by(["rank", "--scores", "s.csv", "--out-dir", "k"], tmp_path)
    assert "selfscore.losses" in scored and "selfscore.ranking" in ranked
    assert "selfscore.evaluation" not in scored | ranked


WRITERS = {"atomic_write", "json.dumps", "csv.writer"}


def called_name(node: ast.Call) -> str:
    """``f`` for a call of ``f(...)``, ``m.f`` for ``m.f(...)``, else empty."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return func.id if isinstance(func, ast.Name) else ""


def test_only_grid_formats_and_writes_a_file():
    calls = {(path.name, name) for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and (name := called_name(node)) in WRITERS}
    assert {module for module, _ in calls} == {"grid.py"}, sorted(calls)
    assert {name for _, name in calls} == WRITERS
