import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile("ci", deadline=None, max_examples=50)
hypothesis.settings.load_profile("ci")


def _real_hessian(mixed, pure):
    """The (B, 2N, 2N) real Hessian from the Wirtinger Hessians H and S:
    f_{x_l x_k} = 2 Re(H + S), f_{y_l y_k} = 2 Re(H - S), f_{x_l y_k} = 2 Im(H - S)."""
    b, nv, _ = mixed.shape
    out = np.empty((b, nv, 2, nv, 2))
    out[:, :, 0, :, 0] = 2.0 * (mixed + pure).real
    out[:, :, 1, :, 1] = 2.0 * (mixed - pure).real
    out[:, :, 0, :, 1] = 2.0 * (mixed - pure).imag
    out[:, :, 1, :, 0] = out[:, :, 0, :, 1].transpose(0, 2, 1)
    return out.reshape(b, 2 * nv, 2 * nv)


@pytest.fixture(scope="session")
def real_hessian():
    """The function (H, S) -> real Hessian, for checks against a real-variable oracle."""
    return _real_hessian


@pytest.fixture
def forbid_lapack_det(monkeypatch):
    """Make np.linalg.det raise: a perf guard for code that must use the closed-form kernel."""

    def no_lapack(a):
        raise AssertionError(f"np.linalg.det called on shape {np.shape(a)}")

    monkeypatch.setattr(np.linalg, "det", no_lapack)


@pytest.fixture
def forbid_chain_rule(monkeypatch):
    """Make surfaces._chain raise: a perf guard for jets that must be formed in closed form."""
    from levilab import surfaces

    def no_chain(inner, *args):
        raise AssertionError(f"surfaces._chain called on a batch of {len(inner.val)}")

    monkeypatch.setattr(surfaces, "_chain", no_chain)


@pytest.fixture
def frame_calls(monkeypatch):
    """Record the batch size of every FrameBatch.at_points call: a perf guard for
    suites that must build each chunk's boundary frames once."""
    from levilab.curvature import FrameBatch

    calls = []
    real = FrameBatch.at_points.__func__

    def counting(cls, spec, pts, *args, **kwargs):
        calls.append(len(pts))
        return real(cls, spec, pts, *args, **kwargs)

    monkeypatch.setattr(FrameBatch, "at_points", classmethod(counting))
    return calls
