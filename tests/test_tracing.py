"""The benchmark tracer patches petrisynth functions by name; a refactor
that drops or renames one of them must fail here, not only in a traced
benchmark run."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from petrisynth import modsolve, polysynth, regions  # noqa: E402


def test_traced_names_exist():
    for layer in tracing.LAYERS:
        importlib.import_module(f"petrisynth.{layer}")
    for layer, attrs in tracing.SPANNED.items():
        module = importlib.import_module(f"petrisynth.{layer}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{layer}.{attr}"
    for name in tracing.RESULT_COUNTS:
        layer, attr = name.split(".")
        assert attr in tracing.SPANNED[layer], name
    assert callable(regions.solves)
    assert callable(polysynth._cover)
    assert callable(modsolve.ModSystem.__post_init__)


def test_install_and_uninstall_restore_the_package():
    before = (regions.solves, polysynth._cover, polysynth.decide_ssp, modsolve.ModSystem.__post_init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert polysynth.decide_ssp is not before[2]
        assert polysynth._cover is not before[1]
    finally:
        tracer.uninstall()
    after = (regions.solves, polysynth._cover, polysynth.decide_ssp, modsolve.ModSystem.__post_init__)
    assert after == before
