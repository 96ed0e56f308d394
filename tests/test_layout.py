"""Source-layout rules: private helpers stay inside their module, the
Fourier transforms and the size limits live in the spectral core
(frvi.fracgrad) only, every name the benchmark's tracer wraps still exists
(and the oracle's and the inner solves' still do the counted work), every
config key the CLI accepts is read, nothing reads the environment, random
generators are made in two named places only and drawn from in one, one
function solves and records an eps step, two solve dense linear systems,
every module cache keyed on arguments is bounded, and the oracle takes
only data types from the penalty route."""

import ast
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np

import frvi.cli
import frvi.oracle
import frvi.qvi
import frvi.studies
import frvi.vi
from frvi.fields import ScalarField, make_grid, mask_box, scalar_field
from frvi.instances import QVI_INNER_CFG, QVI_OUTER_TOL, qvi_kernel_1d
from frvi.vi import PenaltyConfig, ProblemData, Threshold, identity_coefficients

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "frvi"


def _modules():
    return [(p.name, ast.parse(p.read_text(encoding="utf-8")))
            for p in sorted(SRC.glob("*.py"))]


def test_no_private_names_imported_across_modules():
    offenders = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "frvi":
                continue
            offenders += [f"{name}:{node.lineno} imports {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert not offenders, offenders


def test_fourier_transforms_only_in_fracgrad():
    offenders = []
    for name, tree in _modules():
        if name == "fracgrad.py":
            continue
        for node in ast.walk(tree):
            words = (getattr(node, key, None)
                     for key in ("attr", "id", "name", "module"))
            if any(isinstance(w, str) and "fft" in w for w in words):
                offenders.append(f"{name}:{node.lineno}")
    assert not offenders, offenders


def _benchmark_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py wraps frvi functions by name; a rename inside
    # frvi fails here instead of only in the slow benchmark suite
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.restore()


def test_benchmark_oracle_probes_fire():
    # the tracer counts oracle runs, factorizations and iterations at the
    # names frvi.oracle calls; work routed around them would read 0
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    grid = make_grid(1, 2.0, 32)
    mask = mask_box(grid, 1.0)
    f = ScalarField(grid, np.where(mask.inside, 10.0, 0.0))
    data = ProblemData(mask, 0.5, identity_coefficients(grid), f,
                       Threshold(scalar_field(grid, 1.0), 1.0))
    try:
        tracing.install(tracer)
        tracer.active = True
        frvi.oracle.oracle_solve_vi(data)
    finally:
        tracer.active = False
        tracer.restore()
    for count in ("oracle.runs", "oracle.factorizations", "oracle.iterations"):
        assert tracer.counts[count] >= 1, count


def test_benchmark_inner_solve_probes_fire():
    # the tracer counts the inner solves of the studies and of the Picard
    # loop at the name solve_vi in frvi.studies and frvi.qvi; a solve made
    # through another entry point would read 0
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    grid = make_grid(1, 2.0, 32)
    mask = mask_box(grid, 1.0)
    f = ScalarField(grid, np.where(mask.inside, 10.0, 0.0))
    data = ProblemData(mask, 0.5, identity_coefficients(grid), f,
                       Threshold(scalar_field(grid, 1.0), 1.0))
    deltas = [ScalarField(grid, c * f.values) for c in (0.1, 0.2)]
    inst = qvi_kernel_1d()
    try:
        tracing.install(tracer)
        tracer.active = True
        frvi.studies.lipschitz_study_f(data, deltas)
        sol = frvi.qvi.solve_qvi(inst.problem, inst.operator, QVI_INNER_CFG,
                                 outer_tol=QVI_OUTER_TOL)
    finally:
        tracer.active = False
        tracer.restore()
    assert tracer.counts["studies.inner_solves"] == 3
    assert tracer.counts["qvi.inner_solves"] == sol.iterations + 1


def test_every_cli_key_is_read():
    # an accepted key that nothing reads would be a knob that does nothing:
    # each must be the key argument of a _get/_get_list call in cli.py, or a
    # PenaltyConfig field (the [penalty] keys are read field by field)
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    read = {("penalty", f.name) for f in fields(PenaltyConfig)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("_get", "_get_list")
                and all(isinstance(a, ast.Constant) for a in node.args[1:3])):
            read.add((node.args[1].value, node.args[2].value))
    unread = sorted((section, key) for section, keys in frvi.cli._ALLOWED_KEYS.items()
                    for key in keys if (section, key) not in read)
    assert not unread, unread


def test_no_environment_reads_in_src():
    # a setting read from the environment would be a knob no config or
    # signature shows
    offenders = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                offenders.append(f"{name}:{node.lineno} os.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders += [f"{name}:{node.lineno} imports {a.name}"
                              for a in node.names if a.name in ("environ", "getenv")]
    assert not offenders, offenders


def test_module_caches_are_bounded():
    # a cache keyed on arguments holds one entry per distinct call (a Gram
    # per mask, say) unless lru_cache is given an integer maxsize; the
    # zero-argument instance builders hold one value each
    offenders = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            params = node.args
            if not (params.posonlyargs or params.args or params.kwonlyargs
                    or params.vararg or params.kwarg):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                target = call.func if call else dec
                kind = getattr(target, "attr", getattr(target, "id", None))
                if kind not in ("lru_cache", "cache"):
                    continue
                sizes = ([k.value for k in call.keywords if k.arg == "maxsize"]
                         + call.args[:1]) if call and kind == "lru_cache" else []
                if not (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                        and type(sizes[0].value) is int):
                    offenders.append(f"{name}:{node.lineno} {node.name}")
    assert not offenders, offenders


def _calls_by_owner(tree, callee):
    """(innermost enclosing function, or "<module>", line) of each call to a
    name or attribute `callee` in the module tree."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and callee in (
                    getattr(child.func, "attr", None), getattr(child.func, "id", None)):
                found.append((owner, child.lineno))
            visit(child, owner)
    visit(tree, "<module>")
    return found


def test_random_generators_only_where_allowed():
    # no certificate may rest on a random draw: a generator is made only for
    # the CLI's seeded input field of study-sigma-limit and for the lazy
    # sampled diagnostic vi_residual, which a sample-free certificate is to
    # replace
    allowed = {("cli.py", "_dispatch"), ("vi.py", "vi_residual")}
    offenders = [f"{name}:{line} in {owner}" for name, tree in _modules()
                 for owner, line in _calls_by_owner(tree, "default_rng")
                 if (name, owner) not in allowed]
    assert not offenders, offenders


def test_random_draws_only_in_random_band_limited():
    # every sampled field starts from one draw, so a sampler's draws are
    # those of successive random_band_limited calls
    draws = ("normal", "random", "uniform", "integers", "standard_normal")
    offenders = [f"{name}:{line} in {owner}" for name, tree in _modules()
                 for callee in draws
                 for owner, line in _calls_by_owner(tree, callee)
                 if (name, owner) != ("fracgrad.py", "random_band_limited")]
    assert not offenders, offenders


def test_one_place_solves_and_records_an_eps_step():
    # every eps step, a continued solve's one eps_min step included, is
    # solved and recorded by _along_schedule; solve_penalized is the public
    # twin that records nothing
    tree = ast.parse((SRC / "vi.py").read_text(encoding="utf-8"))
    owners = {callee: {owner for owner, _ in _calls_by_owner(tree, callee)}
              for callee in ("_trace_row", "_solve_penalized_impl")}
    assert owners == {"_trace_row": {"_along_schedule"},
                      "_solve_penalized_impl": {"_along_schedule", "solve_penalized"}}


def test_dense_solves_only_at_the_two_counting_points():
    # inside vi.py an LU solve is made by _PenalizedSystem.solve (every
    # Newton, Picard and predictor system) and by _splitting_start (its
    # sweeps) only, the single points at which a solve can count them
    tree = ast.parse((SRC / "vi.py").read_text(encoding="utf-8"))
    owners = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.ImportFrom) and (child.module or "").endswith("linalg"):
                owners.update(f"{owner}: imports {a.name}" for a in child.names
                              if a.name == "solve")
            if (isinstance(child, ast.Attribute) and child.attr == "solve"
                    and "linalg" in (getattr(child.value, "attr", None),
                                     getattr(child.value, "id", None))):
                owners.add(owner or "<module>")
            visit(child, owner)
    visit(tree, "")
    assert owners == {"_PenalizedSystem.solve", "_splitting_start"}


def test_size_limits_only_in_fracgrad():
    # one dense size limit: a second *_LIMIT constant elsewhere would be a
    # second rule for the same decision
    offenders = []
    for name, tree in _modules():
        if name == "fracgrad.py":
            continue
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            offenders += [f"{name}:{node.lineno} defines {t.id}" for t in targets
                          if isinstance(t, ast.Name) and t.id.endswith("_LIMIT")]
    assert not offenders, offenders


def test_vi_imports_nothing_from_the_oracle():
    # the penalty route is what the oracle checks: a solve_vi that called
    # into frvi.oracle (for its start, say) would no longer be independent
    tree = ast.parse((SRC / "vi.py").read_text(encoding="utf-8"))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["frvi" if node.level else "", node.module]))
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n == "frvi.oracle" or n.startswith("frvi.oracle.") for n in names):
            offenders.append(f"vi.py:{node.lineno}")
    assert not offenders, offenders


def test_oracle_imports_only_classes_from_vi():
    # the oracle checks the penalty route: it may share its data types, but
    # a routine of frvi.vi (energy, sampling, a solver) would tie the
    # reference to what it checks
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["frvi" if node.level else "", node.module]))
            if module == "frvi.vi":
                offenders += [f"oracle.py:{node.lineno} imports {a.name}" for a in node.names
                              if not inspect.isclass(getattr(frvi.vi, a.name, None))]
        elif isinstance(node, ast.Import):
            offenders += [f"oracle.py:{node.lineno} imports {a.name}" for a in node.names
                          if a.name == "frvi.vi"]
    assert not offenders, offenders
