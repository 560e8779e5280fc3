import os
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
