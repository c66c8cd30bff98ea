"""The names bench/ imports, patches or reads must exist in the package.

Some of them look unused where they live (landscape's energy_gradient and
energy_smoothed, cli's b_geometry); deleting one would break
`bench.py --trace 1` without failing any other test.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

from wellscape import cli
from wellscape.landscape import MinimizeConfig, MinimizeResult

BENCH = Path(__file__).resolve().parent.parent / "bench" / "bench.py"
WORKLOADS = BENCH.with_name("workloads.py")


def _wellscape_imports(path):
    """(module, name) for every `from wellscape... import name` in path,
    inside functions too; name is None for a plain `import wellscape...`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "wellscape":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "wellscape")


def test_bench_imported_names_exist():
    # bench imports most of its wellscape names inside the workload set-ups,
    # where only a benchmark run would reach them
    imported = [(module, name) for path in (BENCH, WORKLOADS)
                for module, name in _wellscape_imports(path)]
    assert len(imported) > 10
    missing = []
    for module, name in imported:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        # a submodule, as in `from wellscape import cli`
        if importlib.util.find_spec(f"{module}.{name}") is None:
            missing.append((module, name))
    assert missing == []


def test_bench_patched_and_read_names_exist():
    # bench.py holds only constants and definitions at module level
    spec = importlib.util.spec_from_file_location("wellscape_bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    missing = [(module, attr) for module, attr, _ in bench.PATCHES
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    # _minimize_note reads cfg.gtol (through stage_stops), res.trace and
    # res.backtrack_failures
    assert isinstance(MinimizeConfig().gtol, float)
    fields = {f.name for f in dataclasses.fields(MinimizeResult)}
    assert {"trace", "backtrack_failures"} <= fields


def test_write_field_takes_the_path_first():
    # bench.py wraps cli.write_field and takes the file size from args[0]
    first = next(iter(inspect.signature(cli.write_field).parameters.values()))
    assert first.name == "path"
    assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
