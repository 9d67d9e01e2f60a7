"""The public surface: every exported name resolves, every script loads, the README's example runs."""

import importlib
import importlib.util
import pkgutil
import re
import sys

import numpy as np
import pytest

import confsub

from .conftest import REPO

# `confsub.__main__` runs the CLI when imported
MODULES = ["confsub"] + [f"confsub.{m.name}" for m in pkgutil.iter_modules(confsub.__path__) if m.name != "__main__"]
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_scripts_load_without_running(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # a script may extend it
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs nothing: `main` runs only as __main__
    assert callable(module.main)


def test_readme_library_example():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert ns["lam"] == 2.0 and ns["dims"] == (2, 2, 2, 0) and ns["d1"].shape == (2, 6)
    assert np.max(np.abs(ns["tau"])) < 1e-12  # harmonic: the fibers are minimal
    alone = ns["alone"]
    assert ns["lam1"].tobytes() == alone[0].lam[alone[1]].tobytes()  # a batch entry is its batch of one, bit for bit
    g1, k1 = ns["entries"][1]
    assert np.array_equal(g1.sff[k1], alone[0].sff[alone[1]])
    assert ns["j"].value.shape == (3,)
