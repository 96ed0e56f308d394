"""Source-layout rules: private helpers stay inside their module, the
Fourier transforms live in the spectral core (frvi.fracgrad) only, and
every name the benchmark's tracer wraps still exists."""

import ast
import importlib.util
from pathlib import Path

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


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py wraps frvi functions by name; a rename inside
    # frvi fails here instead of only in the slow benchmark suite
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.restore()
