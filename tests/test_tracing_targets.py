"""Every function and method that perfbench's tracer wraps resolves on the
imported blowlab modules.

perfbench/tracing.py is loaded read-only from its file. Tracer.install looks
each TARGETS entry up in the blowlab modules that `import blowlab.cli`
leaves in sys.modules, so a renamed or deleted name would otherwise surface
only when the benchmark runs with --trace 1.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import blowlab.cli  # noqa: F401  (the modules the tracer finds)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module.TARGETS]


@pytest.mark.parametrize("module, attr", _targets(),
                         ids=lambda v: v)
def test_tracing_target_resolves(module, attr):
    home = sys.modules[f"blowlab.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        raw = vars(getattr(home, cls_name))[meth]
        target = raw.__func__ if isinstance(raw, classmethod) else raw
    else:
        target = getattr(home, attr)
    assert callable(target)
