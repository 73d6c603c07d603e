"""The names other code reaches into the package by: the benchmark's tracer
wraps functions and methods by name, and `resgate.__all__` is the public
import surface.  A rename or deletion must show up here, not as a
benchmark run that traces nothing.  A deletion must also take its
imports with it: no module imports a name it never uses."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import resgate
from resgate import cli, scattering, svgplot

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
PACKAGE = Path(resgate.__file__).resolve().parent


def test_traced_names_resolve_and_public_names_pinned():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod_name, qual in tracing.TARGETS:
        owner = importlib.import_module(mod_name)
        if "." in qual:                     # the tracer wraps cls.__dict__[meth]
            cls_name, meth = qual.split(".")
            target = vars(getattr(owner, cls_name)).get(meth)
        else:
            target = getattr(owner, qual, None)
        assert callable(target), f"{mod_name}.{qual}"

    assert resgate.__all__ == [
        "ConfigError",
        "DeviceParams",
        "FidelityPoint",
        "GateInputs",
        "NumericsError",
        "Pulse",
        "ReflectionResult",
        "TimeGrid",
        "default_grid",
        "gate_fidelity",
        "gaussian_pulse",
        "input_mean_photon",
        "joint_state",
        "reference_device",
        "reflection_filter",
        "scatter_all_states",
        "sweep_coupling_variation",
        "sweep_photon_number",
        "xi_analytic",
        "xi_effective",
    ]
    assert all(hasattr(resgate, name) for name in resgate.__all__)

    # the batch kernels every meanfield and master run goes through, which
    # a per-batch span wraps: their positional parameters, all required
    for fn, params in (
        (scattering._meanfield_rows, ["grid", "jobs", "drive", "envelope", "record"]),
        (scattering._evolve_master_batch,
         ["space", "g_eff", "params", "grid", "drive", "scale", "rho", "ops"]),
    ):
        sig = inspect.signature(fn).parameters
        assert list(sig) == params, fn.__name__
        assert all(q.kind is q.POSITIONAL_OR_KEYWORD and q.default is q.empty for q in sig.values())


def test_traced_cli_signatures():
    # the benchmark's census calls cmd_levels(cfg, True), and its tracer
    # reads the file at the first argument of the two writers
    for fn in (cli.cmd_levels, cli.cmd_reflect, cli.cmd_fidelity, cli.cmd_regime):
        sig = inspect.signature(fn).parameters
        assert list(sig) == ["cfg", "plot"], fn.__name__
        assert all(q.kind is q.POSITIONAL_OR_KEYWORD and q.default is q.empty for q in sig.values())
    assert list(cli._DISPATCH.values()) == [cli.cmd_levels, cli.cmd_reflect, cli.cmd_fidelity, cli.cmd_regime]
    for fn in (cli._write_rows, svgplot.save_chart):
        first = next(iter(inspect.signature(fn).parameters.values()))
        assert first.name == "path" and first.kind is first.POSITIONAL_OR_KEYWORD, fn.__name__


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_imports(scope) -> set[str]:
    """The names the imports of `scope` bind: its own statements, not those
    of a function inside it."""
    names, todo = set(), list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif not isinstance(node, _FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))
    return names


def test_modules_import_no_unused_name():
    # a module's imports are names it uses, in the package and its tests;
    # __init__ imports to re-export.  A name counts as used where the scope
    # that imports it loads it (an annotation too): a module import anywhere
    # in the module, a function's own import inside that function
    for path in sorted([*PACKAGE.glob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS))]:
            used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
            unused = _own_imports(scope) - used
            assert not unused, f"{path.name} {getattr(scope, 'name', '')} imports unused {sorted(unused)}"
