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
