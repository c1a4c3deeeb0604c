"""The benchmark tracer's span sites still name functions of the package.

``perfbench/tracer.py`` times each layer by wrapping a module-level name and
skips names that no longer exist, so a refactor that renames or bypasses a
traced function would silently zero that layer's per-layer rows.  This test
makes such a rename fail instead.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Sites already stale: the drift solve takes the Fisher matrix from
# ``manifold.feature_moments`` and factors its system with
# ``_linalg.spd_factor``, so ``flows`` imports neither name any more.
STALE_SITES = {
    ("kingflow.flows", "fisher_estimate"),
    ("kingflow.flows", "chol_spd"),
}


def _span_sites():
    """``(module, attribute)`` of each site in the tracer's ``SPAN_SITES``."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    sys.modules[spec.name] = tracer
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return [(module, attribute) for module, attribute, _ in tracer.SPAN_SITES]


@pytest.mark.parametrize(
    "module, attribute", [site for site in _span_sites() if site not in STALE_SITES]
)
def test_span_site_resolves(module, attribute):
    target = importlib.import_module(module)
    for part in attribute.split("."):
        assert hasattr(target, part), f"{module}.{attribute} no longer exists"
        target = getattr(target, part)
