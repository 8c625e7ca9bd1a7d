"""Package hygiene: every name a module exports exists and star-imports; one version; one numpy."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import effdeg

# __main__ runs the CLI when imported
MODULES = ["effdeg"] + [
    f"effdeg.{m.name}" for m in pkgutil.iter_modules(effdeg.__path__) if m.name != "__main__"
]


def test_every_module_is_listed():
    assert {"effdeg.cli", "effdeg.net", "effdeg.polylab", "effdeg.surrogate"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib: tomllib is missing on Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]+)"$', text, flags=re.M) == [effdeg.__version__]


def test_numpy_is_the_only_runtime_dependency():
    allowed = {"numpy", "effdeg"} | set(sys.stdlib_module_names)
    imported = set()
    for path in (Path(effdeg.__file__).parent).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported and imported <= allowed, sorted(imported - allowed)
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^dependencies = (\[.*\])$", text, flags=re.M) == ['["numpy>=1.24"]']


def test_ci_installs_the_numpy_the_golden_hashes_were_recorded_on():
    # on another numpy, acceptance test 8 skips its golden comparison instead of failing
    root = Path(__file__).resolve().parents[1]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    golden = json.loads((root / "tests" / "fixtures" / "golden_hashes.json").read_text("utf-8"))
    assert re.findall(r"numpy==([0-9][^\"'\s]*)", workflow) == [golden["numpy"]]


ROOT = Path(__file__).resolve().parents[1]
# calls that seed a random stream: numpy's bit generators and its seeding helpers
SEEDING_CALLS = {
    "SeedSequence", "default_rng", "RandomState", "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64",
}


def package_modules(*but: str) -> list[Path]:
    return [p for p in sorted((ROOT / "src" / "effdeg").glob("*.py")) if p.name not in but]


def calls_named(paths, names) -> list[str]:
    """Every call, as file:line name, in paths to a function or method whose name is in names."""
    calls = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    calls.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return calls


def test_random_streams_are_seeded_only_in_sampling():
    # the package and its demos take every stream from sampling.rng and its kin
    package, demos = package_modules("sampling.py"), sorted((ROOT / "demos").glob("*.py"))
    assert package and demos
    calls = calls_named(package + demos, SEEDING_CALLS)
    assert not calls, calls


def test_paths_are_planned_only_in_estimator():
    # estimator's blocked planner is the one that draws paths: the training
    # penalty and every other module cut their plans from it
    modules = package_modules("estimator.py")
    assert modules
    calls = calls_named(modules, {"draw_paths", "path_key"})
    assert not calls, calls


def test_plans_are_built_only_in_estimator():
    # a PathPlans records the settings it was drawn under only if the
    # planner is the one that builds it
    modules = package_modules("estimator.py")
    assert modules
    calls = calls_named(modules, {"PathPlans"})
    assert not calls, calls


def test_the_heap_is_held_only_in_estimator():
    # a freed np.empty block sets glibc's allocator thresholds for the whole
    # process: estimator.hold_heap is the one place that frees one, so every
    # caller holds the same heap
    discarded = []
    for path in package_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "hold_heap"
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            call = node.value if isinstance(node, ast.Expr) else None
            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "empty":
                discarded.append((path.name, node.lineno, id(node) in helper))
    assert [(name, inside) for name, _, inside in discarded] == [("estimator.py", True)], discarded


def test_importing_the_cli_defers_the_worker_pool():
    # pnn_study imports its process pool when it runs, so importing effdeg,
    # and with it every CLI start, does not pay for multiprocessing
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, effdeg.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"
