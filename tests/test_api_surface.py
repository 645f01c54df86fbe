"""The public names of the package, and the ones the benchmark relies on.

The benchmark in ``bench/`` reaches the package through ``hydrospline.X``
(aliased ``hs``) and wraps the functions its tracer names, so removing or
renaming one of those breaks it; these tests catch that in the suite.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path
from types import ModuleType

import hydrospline
import hydrospline.splines
from hydrospline.series import TimeSeries, _Value
from hydrospline.svgplot import PlotLayer

BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE_ALIASES = {"hs", "hydrospline"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_reads(tree):
    """Names read as ``hs.X``, ``hydrospline.X`` or ``self.hs.X``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in PACKAGE_ALIASES or (
                    isinstance(base, ast.Attribute) and base.attr in PACKAGE_ALIASES):
                yield node.attr


def test_benchmark_reads_only_exported_names():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    reads = set(_package_reads(tree))
    assert {"parse_csv", "dataset_series", "render_svg"} <= reads  # the walk finds them
    assert sorted(reads - set(hydrospline.__all__)) == []


def test_traced_functions_exist():
    targets = _load("tracer").TARGETS
    assert targets
    for module_name, attr, _, _ in targets:
        module = importlib.import_module(f"hydrospline.{module_name}")
        assert callable(getattr(module, attr, None)), f"hydrospline.{module_name}.{attr}"


def test_traced_run_records_every_target_with_its_counts():
    # the counters read curve.t and layer.points, so a change to either shows here
    tracer_module, workloads = _load("tracer"), _load("workloads")
    station = workloads.StationTable(1, BENCH.parent)
    dense = workloads.DenseCurve(1, BENCH.parent)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        outputs = [(w, w.op(tracer)) for w in (station, dense)]
    finally:
        tracer.uninstall()
    for workload, output in outputs:
        assert workload.check(output) == []
    spans = {}
    for span in tracer.spans:
        assert not span.error, span.name
        spans.setdefault(span.name, []).append(span)
    assert len(tracer_module.TARGETS) == 19
    assert sorted(spans) == sorted(name for _, _, name, _ in tracer_module.TARGETS)
    for _, _, name, counter in tracer_module.TARGETS:
        for span in spans[name]:
            if counter is None:
                assert span.counts == {}, name
            else:
                assert span.counts and all(v > 0 for v in span.counts.values()), name
    grid, knots = workloads.DENSE_GRID, len(dense.series[0].knots)
    assert {s.counts["points"] for s in spans["splines.dense_grid"]} == {grid}
    assert spans["svgplot.render_svg"][0].counts["points"] == 2 * grid + knots


def test_cli_imports_only_public_names():
    # the CLI reaches each computation through its public route
    source = Path(hydrospline.__file__).with_name("cli.py").read_text(encoding="utf-8")
    relative = [node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.level]
    assert {node.module for node in relative} >= {"dataio", "regression", "splines"}
    private = [(node.module, alias.name) for node in relative for alias in node.names
               if alias.name.startswith("_")]
    assert private == []


def _imported_names(tree):
    """Each dotted part of the modules a tree imports from, and of the names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (node.module or "").split(".")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")


def test_curve_users_take_the_curve_type_from_series_not_splines():
    # the uniform-grid curve and its grid-size rule sit beside the other shared internals,
    # so the trend, harmonic and plot modules do not load the spline fitter
    package = Path(hydrospline.__file__).parent
    for name in ("regression.py", "harmonic.py", "svgplot.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        assert "splines" not in set(_imported_names(tree)), name
    assert hydrospline.CurveSamples.__module__ == "hydrospline.series"
    assert hydrospline.splines.CurveSamples is hydrospline.CurveSamples


def _knot_pair_loops(tree):
    """Lines of the comprehensions and for loops that unpack pairs from ``*knots``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.comprehension, ast.For)) and isinstance(node.target, ast.Tuple):
            source = node.iter
            name = source.id if isinstance(source, ast.Name) else getattr(source, "attr", "")
            if name.endswith("knots"):
                yield node.target.lineno


def test_only_the_knot_reader_splits_knot_pairs():
    # TimeSeries, SplineModel and LagrangeModel convert and check their knots in one place
    package = Path(hydrospline.__file__).parent
    loops, reader = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if path.name == "series.py" and getattr(node, "name", None) == "_knot_arrays":
                reader.update(_knot_pair_loops(node))
        loops.update((path.name, line) for line in _knot_pair_loops(tree))
    assert len(reader) == 2  # the walk finds the reader's times and values
    assert sorted(loops - {("series.py", line) for line in reader}) == []


def test_all_lists_every_public_name_once():
    public = {
        name for name, value in vars(hydrospline).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(hydrospline.__all__) == len(set(hydrospline.__all__))
    assert set(hydrospline.__all__) == public | {"__version__"}


def _defined_names(tree):
    """The names a module's own top-level classes, functions and assignments bind."""
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))


def test_every_public_name_is_defined_in_a_submodule():
    # __all__ is whatever __init__ imports, so an import from outside the package would
    # make a foreign name public; each name must come from the submodule that defines it
    package = Path(hydrospline.__file__).parent
    homes = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            homes.update(dict.fromkeys(_defined_names(tree), path.stem))
    for name in set(hydrospline.__all__) - {"__version__"}:
        assert name in homes, name
        module = importlib.import_module(f"hydrospline.{homes[name]}")
        assert getattr(hydrospline, name) is getattr(module, name), name


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_value_types_take_their_fields_and_share_one_value_base():
    # copies and pickles pass the _fields values to the constructor positionally,
    # and a dataclass-generated method would shadow the base's
    classes = [cls for cls in _subclasses(_Value) if cls.__module__.startswith("hydrospline.")]
    names = {cls.__name__ for cls in classes}
    assert names == {"TimeSeries", "Dataset", "SplineModel", "LagrangeModel", "CurveSamples",
                     "PlotLayer"}
    for cls in classes:
        assert tuple(inspect.signature(cls).parameters) == cls._fields, cls
        methods = ["__eq__", "__hash__", "__repr__", "__reduce__"]
        if cls is not TimeSeries:  # the dataclass __init__ comes with its frozen guards
            methods += ["__setattr__", "__delattr__"]
        for method in methods:
            # a layer's points array has no truth value, so layers compare by identity
            base = object if cls is PlotLayer and method in ("__eq__", "__hash__") else _Value
            assert getattr(cls, method) is getattr(base, method), (cls, method)
