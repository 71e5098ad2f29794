"""Package hygiene: sources compile cleanly, every demo runs, every
exported name exists, and every name the benchmark traces still exists."""

import importlib
import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gsalg").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_sources_compile_without_warnings():
    # invalid escapes and similar are SyntaxWarnings today and errors later
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_all_names_resolve(source):
    name = "gsalg" if source.stem == "__init__" else f"gsalg.{source.stem}"
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"{name}.{attr}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_traced_names_resolve():
    # perfbench/layers.py wraps these names; Tracer.install looks each one
    # up in its owner's __dict__, so a rename breaks the traced benchmark
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.LAYERS
    for qualname, _, _ in layers.LAYERS:
        module_name, *attrs = qualname.split(".")
        owner = importlib.import_module(f"gsalg.{module_name}")
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        assert callable(owner.__dict__.get(attrs[-1])), qualname


def test_import_leaves_the_small_prime_table_unbuilt():
    # the table takes tens of ms to build; it belongs to the first split
    # of a magnitude base, not to every process that imports gsalg
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import gsalg, gsalg.magnitude as m; "
            "print(m._small_prime_table.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
