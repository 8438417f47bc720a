import ast
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


# file access, decoding, and cutting text into lines or comments
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes", "savetxt", "loadtxt",
              "decode", "splitlines", r"split('\n')", "split('#')"}


def _call_name(call):
    """The called name; a split by a constant string is named with it, as in `split('#')`."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    arg = call.args[0] if call.args else None
    if name == "split" and isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return f"split({arg.value!r})"
    return name


def _file_calls(tree):
    """(enclosing function, called name) of each call in tree to a name in FILE_CALLS."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _call_name(child) in FILE_CALLS:
                found.append((func, _call_name(child)))
            visit(child, func)

    visit(tree, None)
    return found


def test_only_the_file_boundary_reads_writes_or_decodes_files():
    # checkpoint.py is the file boundary: decode_text reads every text input, numbered_lines
    # cuts it into lines past comments, and replacing opens every output; the series CSV's
    # np.loadtxt fast path is the one exception
    calls = {path.name: _file_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(Path(fusecast.__file__).parent.glob("*.py"))}
    boundary = {("decode_text", "read_bytes"), ("decode_text", "decode"), ("replacing", "open"),
                ("numbered_lines", r"split('\n')"), ("numbered_lines", "split('#')")}
    assert boundary <= set(calls.pop("checkpoint.py"))
    assert {name: found for name, found in calls.items() if found} == {
        "data.py": [("_read_numeric_csv", "loadtxt")]}
