"""The benchmark's span tracer against the package it patches.

perfbench/tracer.py wraps spinwire's collaborators by module attribute
name, so a renamed or removed name breaks the benchmark, not the
package.  Claims checked here:
    - instrument(Tracer()) enters on this tree, and the subcommands that
      look the traced experiments up through cli's globals record their
      spans
    - on exit every module and class attribute that existed before is
      the same object again, and cli.RUNNERS holds the same runners
    - the only attributes left behind are the None placeholders the
      tracer writes for names a module never had; they are deleted, so
      later tests see clean modules
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from spinwire import channels, cli, closed_forms, numerics, propagator, series, svg_plot, walks

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PATCHED = (channels, cli, closed_forms, numerics, propagator, series, svg_plot, walks,
           propagator.SpectralAlpha)
# (owner, attribute) the tracer sets back to None although the owner never had it
LEFT_AS_NONE = {
    (channels, "adaptive_simpson"),
    (channels, "build_series"),
    (channels, "evaluate_series"),
    (cli, "build_series"),
    (series, "walk_count"),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_restores_every_attribute(capsys):
    tracer_module = _load_tracer()
    before = [dict(vars(owner)) for owner in PATCHED]
    runners = dict(cli.RUNNERS)
    tracer = tracer_module.Tracer()
    try:
        with tracer_module.instrument(tracer):
            assert cli.main(["bloch", "--tmax", "2", "--steps", "5"]) == 0
            assert cli.main(["witness", "--tmax", "2", "--steps", "5"]) == 0
        after = [dict(vars(owner)) for owner in PATCHED]
    finally:
        for owner, attr in LEFT_AS_NONE:
            if attr in vars(owner) and getattr(owner, attr) is None:
                delattr(owner, attr)
    capsys.readouterr()

    names = {span[3] for span in tracer.spans}
    assert {"channels.bloch", "channels.witness", "propagator.certify"} <= names
    missing = object()
    for owner, old, new in zip(PATCHED, before, after):
        changed = [attr for attr, value in old.items() if new.get(attr, missing) is not value]
        assert not changed, (owner, changed)
    left = {(owner, attr) for owner, old, new in zip(PATCHED, before, after)
            for attr in new.keys() - old.keys()}
    assert left == LEFT_AS_NONE
    assert all(after[PATCHED.index(owner)][attr] is None for owner, attr in left)
    assert not any(attr in vars(owner) for owner, attr in LEFT_AS_NONE)
    assert dict(cli.RUNNERS) == runners
