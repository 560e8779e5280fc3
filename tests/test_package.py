import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pnpfusion


def test_import_reaches_every_module():
    # a module that `import pnpfusion` never loads has no caller inside the
    # package, only in its tests; an unused file-format module lingered so
    package = Path(pnpfusion.__file__).resolve().parent
    modules = {f"pnpfusion.{p.stem}" for p in package.glob("*.py")} - {
        "pnpfusion.__init__"
    }
    path = os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-c", "import sys, pnpfusion; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert modules - set(run.stdout.split()) == set()


def test_every_module_constant_is_read_in_its_module():
    # an UPPER_CASE constant that its own module never reads is a leftover
    # of code that moved or went
    package = Path(pnpfusion.__file__).resolve().parent
    unread = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            unread += [
                f"pnpfusion.{path.stem}.{t.id}"
                for t in targets
                if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()
                and t.id not in read
            ]
    assert unread == []


# exports that neither the package nor the benchmark calls, and why they stay
NO_CALLER = {
    "build_explicit_w": "the one dense oracle",
    "ergas": "the standard fusion metric",
}


def test_every_export_has_a_caller():
    # an export read by no other module and named nowhere in perfbench/ (a
    # tracer pin is a string) serves only tests, and belongs in them
    package = Path(pnpfusion.__file__).resolve().parent
    read = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    bench = "\n".join(path.read_text() for path in perfbench.glob("*.py"))
    uncalled = {
        name
        for name in pnpfusion.__all__
        if name not in read and not re.search(rf"\b{name}\b", bench)
    }
    assert uncalled == set(NO_CALLER)


def test_only_errors_compares_against_infinity():
    # a range check is errors.require_real's; the hand-written copies of
    # `0 < x < np.inf` that it replaced each let other malformed values past
    package = Path(pnpfusion.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                isinstance(part, ast.Attribute) and part.attr == "inf"
                for operand in [node.left, *node.comparators]
                for part in ast.walk(operand)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []



def test_only_errors_converts_arrays():
    # a caller's array goes through errors.as_array; a bare np.asarray skips
    # its rule (ndim, finite and real entries), as the sampling mask once did
    package = Path(pnpfusion.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "asarray":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

RUN_IN_FRESH_INTERPRETER = """
import sys

from pnpfusion import (
    EmConfig,
    HsSceneSpec,
    ImageGeometry,
    PairParams,
    PairSceneSpec,
    SharpenParams,
    SolverConfig,
    deblur_pair,
    generate_hs_scene,
    generate_pair_scene,
    sharpen,
)


def scipy_modules():
    # numpy.ma costs ~9 ms to import and the pipelines do not need it
    return " ".join(
        sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.ma")
    )


print("import:", scipy_modules())
scene = generate_pair_scene(
    PairSceneSpec(ImageGeometry(16, 16), "gauss8", 25 / 255, 2 / 255, seed=7)
)
params = PairParams(
    patch_side=4,
    em=EmConfig(n_components=2, noise_variance=scene.sigma_n**2, max_iters=5),
    solver=SolverConfig(rho=0.08, lam=0.3, tau=0.08),
)
_, report = deblur_pair(scene, params)
assert report.converged
print("deblur_pair:", scipy_modules())
scene = generate_hs_scene(
    HsSceneSpec(ImageGeometry(8, 8), 6, 2, 2, decimation=2, snr_h_db=35.0,
                snr_m_db=35.0, seed=3)
)
params = SharpenParams(
    n_subspace=2,
    patch_side=2,
    em=EmConfig(n_components=2, noise_variance=scene.sigma_m**2, max_iters=5),
    solver=SolverConfig(rho=0.05, lam=0.5, tau=0.05),
)
_, report = sharpen(scene, params)
assert report.converged
print("sharpen:", scipy_modules())
"""


def test_a_pipeline_run_loads_no_scipy():
    # pnpfusion needs only numpy; loading scipy made up ~20 MB of a 71 MB
    # peak RSS at the benchmark's pair-iterate size
    src = str(Path(pnpfusion.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", RUN_IN_FRESH_INTERPRETER],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.split("\n")[:3] == ["import: ", "deblur_pair: ", "sharpen: "]
