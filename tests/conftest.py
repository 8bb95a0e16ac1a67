"""Fixtures shared across test modules."""

import pytest

from sclab import hypersurface


@pytest.fixture
def bundle_grids(monkeypatch):
    """Grids of the metrics hypersurface hands to curvature_bundle."""
    seen = []
    real = hypersurface.curvature_bundle

    def recording(metric):
        seen.append(metric.grid)
        return real(metric)

    monkeypatch.setattr(hypersurface, "curvature_bundle", recording)
    return seen
