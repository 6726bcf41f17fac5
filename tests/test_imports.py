"""The runtime needs numpy alone: scipy is a test dependency, the oracle the
in-house stepper, interpolant and quadrature are checked against, sympy and
mpmath are the symbolic and 40-digit oracles of the tests, and neither
``numpy.random`` nor ``numpy.polynomial`` is loaded.  Every name a
module exports, and every module name the README gives, resolves.  The
half-space has one rule in the source: only ``surface_jets`` reaches the bare
group product, and the group module refuses by one exception class."""
import ast
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_loads_no_scipy():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import solsurf.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    """``import numpy`` leaves ``numpy.polynomial`` unloaded, and the
    package holds its quadrature rule as literals, so it stays unloaded."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import solsurf.cli; "
        "print('numpy.polynomial' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_source_imports_no_scipy():
    statement = re.compile(r"^\s*(from|import) scipy", re.MULTILINE)
    assert [str(p) for p in (ROOT / "src").rglob("*.py") if statement.search(p.read_text())] == []


def test_cli_import_loads_no_sympy_or_mpmath():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import solsurf.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'mpmath')))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_source_imports_no_sympy_or_mpmath():
    statement = re.compile(r"^\s*(from|import) (sympy|mpmath)\b", re.MULTILINE)
    assert [str(p) for p in (ROOT / "src").rglob("*.py") if statement.search(p.read_text())] == []


def test_source_names_no_numpy_random():
    """verify draws its samples from the standard library's ``random``:
    ``numpy.random`` is loaded lazily, and it brings ``hashlib`` and
    OpenSSL into the process with it."""
    name = re.compile(r"\b(numpy|np)\.random\b")
    assert [str(p) for p in (ROOT / "src").rglob("*.py") if name.search(p.read_text())] == []


def test_verify_battery_loads_no_numpy_random():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import solsurf.cli, solsurf.verify; "
        "assert solsurf.verify.run_checks().all_passed; "
        "print(sorted(m for m in ('numpy.random', 'hashlib') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_one_half_space_rule():
    """Whether a point lies in the half-space is decided once, by
    ``surface_jets._positions``: no module but ``surface_jets`` imports or
    reads the bare product ``lie_halfspace._mul``, and the sweep's
    ``_row_blocks`` and the mesh's ``_mesh_points`` form their points
    through ``_positions``.  ``export`` only formats: it names none of
    ``sample_grid``, ``_refused`` and ``_positions``, so the mesh's
    sampling, refusals and points are ``surface_factory``'s."""
    def reaches_mul(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").endswith("lie_halfspace") \
                and any(alias.name == "_mul" for alias in node.names)
        return isinstance(node, ast.Attribute) and node.attr == "_mul"

    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "solsurf").glob("*.py")}
    users = [stem for stem, tree in sorted(trees.items())
             if stem != "lie_halfspace" and any(map(reaches_mul, ast.walk(tree)))]
    assert users == ["surface_jets"]
    for stem, name in (("surface_factory", "_row_blocks"), ("surface_factory", "_mesh_points")):
        (fn,) = [node for node in trees[stem].body
                 if isinstance(node, ast.FunctionDef) and node.name == name]
        assert any(isinstance(node, ast.Name) and node.id == "_positions"
                   for node in ast.walk(fn)), name
    named = {getattr(node, attr) for node in ast.walk(trees["export"])
             for kind, attr in ((ast.Name, "id"), (ast.Attribute, "attr"), (ast.alias, "name"))
             if isinstance(node, kind)}
    assert named.isdisjoint({"sample_grid", "_refused", "_positions"}), named


def test_one_home_of_the_factor_curves():
    """The factor curves are built in ``surface_jets`` alone: its
    constructors ``_horospherical``, ``_graph`` and ``_rising`` are defined
    in no other module, and ``first_kind_jet`` and ``second_kind_jet`` are
    products of them.  ``surface_factory`` defines no curve builder of its
    own, never calls ``_curve``, and calls ``_vertical`` only in
    ``perturb_profile``, whose bumped height is no constructor's."""
    constructors = {"_horospherical", "_graph", "_rising"}
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "solsurf").glob("*.py")}

    def calls(node):  # the bare names of the functions called under node
        return {ast.unparse(n.func).rpartition(".")[2] for n in ast.walk(node)
                if isinstance(n, ast.Call)}

    defined = {stem: {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
               for stem, tree in trees.items()}
    assert [stem for stem, names in sorted(defined.items()) if names & constructors] \
        == ["surface_jets"]
    assert constructors <= defined["surface_jets"]
    jets = {n.name: n for n in trees["surface_jets"].body if isinstance(n, ast.FunctionDef)}
    assert {"_horospherical", "_graph"} <= calls(jets["first_kind_jet"])
    assert {"_horospherical", "_rising"} <= calls(jets["second_kind_jet"])
    factory = [n for n in trees["surface_factory"].body if isinstance(n, ast.FunctionDef)]
    assert not [fn.name for fn in factory if "_curve" in calls(fn)]
    assert [fn.name for fn in factory if "_vertical" in calls(fn)] == ["perturb_profile"]


def test_one_non_finite_policy():
    """Kernel arithmetic never warns, a rule stated once, by
    ``lie_halfspace._quiet``: it decorates the jet kernels, and the kernel
    modules call ``np.errstate`` nowhere else but in ``_axis_jet``, which
    runs functions that callers supply.  ``_quiet`` is only a decorator, and
    no ``_quiet`` function calls another: numpy 2 refuses a nested entry of
    one errstate instance, and numpy 1 restores the wrong saved state."""
    trees = {stem: ast.parse((ROOT / "src" / "solsurf" / f"{stem}.py").read_text())
             for stem in ("lie_halfspace", "soliton_residuals", "surface_factory", "surface_jets")}

    def holder(node):  # a top-level statement's name: a def's or an assignment's
        return getattr(node, "name", None) or ast.unparse(node.targets[0])

    found = {stem: sorted(holder(node) for node in tree.body for call in ast.walk(node)
                          if isinstance(call, ast.Call) and ast.unparse(call.func) == "np.errstate")
             for stem, tree in trees.items()}
    assert found == {"lie_halfspace": ["_quiet"], "soliton_residuals": [],
                     "surface_factory": ["_axis_jet"], "surface_jets": []}
    defs = [node for tree in trees.values() for node in tree.body if isinstance(node, ast.FunctionDef)]
    quiet = {fn.name: fn for fn in defs if "_quiet" in map(ast.unparse, fn.decorator_list)}
    assert {"_positions", "_derivatives", "_curvature", "unit_normal", "_residual_of"} <= set(quiet)
    loads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "_quiet" and isinstance(node.ctx, ast.Load)]
    assert len(loads) == len(quiet)
    for name, fn in quiet.items():
        called = {ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
        assert called.isdisjoint(quiet), (name, called & set(quiet))


def test_residual_kernel_branches_only_on_its_mode():
    """``_residual_of`` is one expression per mode: it calls no numpy
    function and its ``if`` tests read ``mode`` alone, so float64 and
    50-digit object jets run the same statements, with no branch on their
    values."""
    tree = ast.parse((ROOT / "src" / "solsurf" / "soliton_residuals.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_residual_of")
    called = {ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
    assert not [name for name in called if name.startswith("np.")], called
    tests = [node.test for node in ast.walk(fn) if isinstance(node, (ast.If, ast.IfExp))]
    read = [{n.id for n in ast.walk(test) if isinstance(n, ast.Name)} for test in tests]
    assert read and all(names <= {"mode", "SolitonMode"} for names in read), read


def test_closed_form_has_one_formula_at_every_slope():
    """The closed-form profile forms each quantity by one range-safe
    expression at every slope: ``profile_odes`` rescales by no power of two
    (``g''`` divides by ``D`` three times instead of by ``D^3``), and the
    conformal ``dt_dphi`` selects between no two orders of one product."""
    tree = ast.parse((ROOT / "src" / "solsurf" / "profile_odes.py").read_text())
    called = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called.isdisjoint({"np.frexp", "np.ldexp"}), called & {"np.frexp", "np.ldexp"}
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "ConformalProfileParams")
    fn = next(node for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name == "dt_dphi")
    assert not [node for node in ast.walk(fn)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.where"]


def test_group_module_refuses_by_one_exception_class():
    """An overflowing result of ``lie_halfspace`` is refused by the check
    on it, as every other bad result is: the module raises no exception
    class but ``ParameterError``."""
    tree = ast.parse((ROOT / "src" / "solsurf" / "lie_halfspace.py").read_text())
    raised = {ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
              for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    assert raised == {"ParameterError"}


def test_jet_kernels_return_fresh_arrays():
    """No jet kernel takes numpy's ``out=``, the group law ``_mul`` included:
    every slot is a fresh array of its inputs' result type."""
    from solsurf import lie_halfspace, surface_jets

    for fn in (lie_halfspace._mul, surface_jets._positions, surface_jets._derivatives,
               surface_jets.product_surface_jet):
        assert "out" not in inspect.signature(fn).parameters, fn.__name__


def test_every_exported_name_resolves():
    """A name left in a module's ``__all__`` after its definition goes breaks
    ``from solsurf.<module> import *``; every module must star-import."""
    import solsurf

    names = ["solsurf"] + [f"solsurf.{m.name}" for m in pkgutil.iter_modules(solsurf.__path__)]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    for name in names:
        exec(f"from {name} import *", {})


def test_readme_library_tour_runs():
    """The README's python block runs as written, and the values its comments
    state are the ones it computes."""
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    ns: dict = {}
    exec(block, ns)
    sol = ns["sol"]
    claims = {
        "rep.max_abs": repr(ns["rep"].max_abs),
        "sol.right_blowup_t": f"≈ {float(sol.right_blowup_t)!r:.7}…",
        "sol.conserved_max_defect": f"≈ {sol.conserved_max_defect:.1e}",
        'residual("translator", jg).shape': repr(ns["residual"]("translator", ns["jg"]).shape),
    }
    for expr, value in claims.items():
        assert re.search(rf"^{re.escape(expr)} +# {re.escape(value)}", block, re.M), (expr, value)


def test_readme_names_resolve():
    """Every backticked ``module.name`` in README.md whose module is a
    solsurf module is an attribute of it, and every backticked
    ``group.row`` whose group is a verify group is a row of
    ``verify._REGISTRY``: a name the code drops cannot linger in the docs."""
    import solsurf
    from solsurf import verify

    modules = {m.name: importlib.import_module(f"solsurf.{m.name}")
               for m in pkgutil.iter_modules(solsurf.__path__)}
    rows = {entry[0] for entry in verify._REGISTRY}
    groups = {row.split(".")[0] for row in rows}
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    names = {m.groups() for span in re.findall(r"`([^`]+)`", text)
             for m in re.finditer(r"(?<![\w.])(\w+)\.(\w+)", span)}
    assert sorted(f"{a}.{b}" for a, b in names if a in modules and not hasattr(modules[a], b)) == []
    assert sorted(f"{a}.{b}" for a, b in names if a in groups and f"{a}.{b}" not in rows) == []
    assert any(a in modules for a, _ in names) and any(a in groups for a, _ in names)


def test_top_level_names():
    """The package's public names, each module's ``__all__``: an API change
    shows here as a diff."""
    import solsurf

    names = sorted(n for n, v in vars(solsurf).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == [
        "ConformalProfileParams", "DomainError", "GridSpec", "GrimReaperParams", "IDENTITY",
        "MinimalProfileParams", "ParameterError", "ProfileSolution", "ResidualReport",
        "SolitonMode", "SurfaceFamily", "conformal_halfwidth_quadrature",
        "finite_difference_jet", "first_kind_jet", "grid_axes", "integrate_conformal_profile",
        "integrate_grim_reaper", "integrate_minimal_profile", "lie_inverse", "lie_product",
        "make_conformal_cylinder", "make_generic_first_kind", "make_generic_second_kind",
        "make_grim_reaper", "make_horosphere", "make_minimal_cylinder", "make_vertical_plane",
        "mean_curvature", "minimal_halfwidth_quadrature", "perturb_profile",
        "product_surface_jet", "reduced_residual_first_kind", "reduced_residual_second_kind",
        "residual", "residual_report", "rotation_about_vertical", "sample_grid",
        "second_kind_jet", "semidirect_product", "semidirect_to_halfspace", "unit_normal",
    ]


def test_public_dataclass_shapes():
    """Every dataclass the package defines, with its field names and whether
    it is frozen: a field added, dropped or left settable shows here as a
    diff.  The four profile dataclasses have 11 fields between them; the
    monitor and the blow-up abscissa of a ``ProfileSolution`` are derived,
    not stored."""
    import dataclasses

    import solsurf

    shapes = {}
    for m in pkgutil.iter_modules(solsurf.__path__):
        module = importlib.import_module(f"solsurf.{m.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                shapes[name] = ([f.name for f in dataclasses.fields(obj)],
                                obj.__dataclass_params__.frozen)
    assert shapes == {
        "MinimalProfileParams": (["c", "y0"], True),
        "GrimReaperParams": (["lam", "k"], True),
        "ConformalProfileParams": (["a", "y0"], True),
        "ProfileSolution": (["params", "t", "g", "gp", "truncated"], True),
        "SurfaceFamily": (["name", "params", "s_range", "t_range", "alpha", "beta"], False),
        "GridSpec": (["ns", "nt"], True),
        "ResidualReport": (["mode", "family", "s", "t", "r", "reasons"], False),
        "CheckResult": (["name", "criterion", "passed", "defect", "tolerance", "sense",
                         "seconds", "detail"], True),
        "VerifySummary": (["results"], False),
    }
    profile = ("MinimalProfileParams", "GrimReaperParams", "ConformalProfileParams",
               "ProfileSolution")
    assert sum(len(shapes[name][0]) for name in profile) == 11
