"""The benchmark's tracer patches public callables of the library by name.

Every target must exist, be wrapped while the tracer is installed, and be
restored afterwards, or a traced benchmark run breaks with no library
test failing.
"""

import importlib.util
import json
from pathlib import Path

from isoperim import cli

from conftest import SQUARE

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target(tmp_path):
    tracing = _load_tracing()
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in tracing.targets()]
    domain = tmp_path / "square.json"
    domain.write_text(json.dumps({"vertices": SQUARE}))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, attr, fn in originals:
            assert vars(owner)[attr].__wrapped__ is fn, attr
        assert cli.main(["minimizer", "--domain", str(domain), "--volume", "0.5",
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert vars(owner)[attr] is fn, attr
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "family.build_family", "family.minimizer",
            "io.load_domain", "io.dump_json", "svgout.shape_svg"} <= names
