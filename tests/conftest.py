import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile("ci", deadline=None, max_examples=50)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def forbid_lapack_det(monkeypatch):
    """Make np.linalg.det raise: a perf guard for code that must use the closed-form kernel."""

    def no_lapack(a):
        raise AssertionError(f"np.linalg.det called on shape {np.shape(a)}")

    monkeypatch.setattr(np.linalg, "det", no_lapack)
