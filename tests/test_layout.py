"""Source-layout rules: private helpers stay inside their module, and the
Fourier transforms live in the spectral core (frvi.fracgrad) only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "frvi"


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
