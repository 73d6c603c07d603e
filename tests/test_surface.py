"""The names other code reaches into the package by: the benchmark's tracer
wraps functions and methods by name, its census calls some with their
arguments, and `resgate.__all__` is the public import surface.  A rename or
deletion must show up here, not as a benchmark run that traces nothing.  A
deletion must also take its imports and its helpers with it: no module
imports a name it never uses or defines one nothing names.  The README's
example runs as written."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import re
from pathlib import Path

import resgate
from resgate import cli, device, gate, pulse, scattering, svgplot

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
RUN = TRACING.with_name("run.py")
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


def test_census_calls_bind():
    # the benchmark's census calls one function of each layer its workload's
    # commands never reach, some by keyword (fock_dim=, alpha=, backend=,
    # tau=): each of its calls, with its own arguments, binds to the
    # signature it calls, or only a traced benchmark run would fail
    tree = ast.parse(RUN.read_text(), filename=str(RUN))
    census = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "census")
    modules = {"cli": cli, "device": device, "gate": gate, "pulse": pulse, "scattering": scattering}
    called = set()
    for node in ast.walk(census):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            fn = getattr(modules[node.func.value.id], node.func.attr)
            inspect.signature(fn).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
            called.add(f"{node.func.value.id}.{node.func.attr}")
    assert called == {
        "cli.cmd_levels", "cli.load_config", "device.validate_regime", "gate.sweep_photon_number",
        "pulse.default_grid", "pulse.gaussian_pulse", "scattering.joint_state",
        "scattering.reflect_filter_pulse", "scattering.reflect_master", "scattering.reflect_meanfield",
    }


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


def _references(path: Path) -> set[str]:
    """The names a file refers to: loaded names, attributes, imported names,
    and the words of its strings, docstrings aside (the benchmark's tracer
    and the package's lazy exports name functions and modules in strings)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names.update(re.findall(r"\w+", node.value))
    return names


def test_modules_define_no_unused_name():
    # every top-level function, class and constant of the package is named
    # somewhere besides its definition: in the package, its tests or the
    # benchmark.  A deletion must take the definitions only it used with it
    root = PACKAGE.parent.parent
    named = set().union(*(_references(path) for folder in (PACKAGE, root / "tests", root / "perfbench")
                          for path in folder.glob("*.py")))
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            unused = [name for name in defined if name not in named and not name.startswith("__")]
            assert not unused, f"{path.name} defines unused {unused}"


def test_readme_python_api_example_prints_a_fidelity():
    # the README's example runs as written and prints one fidelity in (0, 1]
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    code = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert 0 < float(out.getvalue()) <= 1, out.getvalue()
