"""The package names the benchmark in ``perfbench/`` resolves must exist.

``perfbench/tracing.py`` swaps module-level ``pnpfusion`` names for timing
wrappers, and ``perfbench/workloads.py`` imports public names; a renamed or
deleted name would otherwise only show up when the benchmark runs. Conversely,
an import that a module never reads must be one of the tracer's names there.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_by_path(name):
    spec = importlib.util.spec_from_file_location(
        f"_bench_contract_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


TRACING = load_by_path("tracing")


def test_workloads_import():
    load_by_path("workloads")


@pytest.mark.parametrize(
    "module,attr", [(m, a) for m, a, _ in TRACING.PATCH_POINTS]
)
def test_patch_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module", TRACING.ADMM_CALLERS)
def test_admm_caller_resolves(module):
    assert callable(importlib.import_module(module).run_admm)


@pytest.mark.parametrize("name", ["pair-iterate", "pair-train", "hs-sharpen"])
def test_smoke_workload_solves_and_passes_its_gate(name):
    workloads = load_by_path("workloads")
    workload = workloads.SMOKE_WORKLOADS[name]
    (problem,) = workloads.build_inputs(workload, seed=1)
    x, report = workloads.solve(workload, problem)
    _, reasons = workloads.gate(workload, problem, x, report)
    assert reasons == []


@pytest.mark.parametrize("name", ["pair-iterate", "pair-train", "hs-sharpen"])
def test_tracer_sees_every_layer_of_a_solve(name):
    # a refactor that sent D, the blur or EM around the patched names would
    # leave the per-layer metrics at 0 without failing the resolve tests
    workloads = load_by_path("workloads")
    workload = workloads.SMOKE_WORKLOADS[name]
    (problem,) = workloads.build_inputs(workload, seed=1)
    with TRACING.Tracer().installed() as tracer:
        _, report = workloads.solve(workload, problem)
    metrics = tracer.layer_metrics()
    # one application of D forms the right-hand side D A^T t, uncounted
    assert metrics["denoiser.apply_calls"] == report.iterations_run + 1
    assert metrics["fftops.blur_calls"] > 0
    assert metrics["gmm.em_iters"] > 0


def test_unused_imports_are_tracer_pins():
    # a module imports a name it never reads only so that the tracer can swap
    # it there; once the tracer drops that pin, this names the import to delete
    pins = {(module, attr) for module, attr, _ in TRACING.PATCH_POINTS}
    pins |= {(module, "run_admm") for module in TRACING.ADMM_CALLERS}
    package = Path(__file__).resolve().parent.parent / "src" / "pnpfusion"
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"pnpfusion.{path.stem}"
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # "from m import X as X" is an explicit re-export
                    if alias.asname != alias.name:
                        local = alias.asname or alias.name.split(".")[0]
                        imported[local] = alias.name
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{module}.{local}"
            for local, name in imported.items()
            if local not in read and (module, name) not in pins
        ]
    assert unused == []
