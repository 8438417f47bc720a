import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import fusecast


def test_each_module_is_the_package_attribute_of_its_name():
    # the root re-exports nothing, so no function can shadow its own module
    names = [m.name for m in pkgutil.iter_modules(fusecast.__path__)]
    assert "decouple" in names
    for name in names:
        assert importlib.import_module(f"fusecast.{name}") is getattr(fusecast, name), name
    src = str(Path(fusecast.__file__).parents[1])
    fresh = subprocess.run(
        [sys.executable, "-c", "import fusecast; print(sorted(n for n in vars(fusecast) if n[0] != '_'))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert fresh.stdout.strip() == "[]"
