import numpy as np
import pytest

from newton_flow import fd
from newton_flow.errors import DomainError

from conftest import reference_deriv1, reference_deriv2


class TestOnePaddedPass:
    @pytest.mark.parametrize("boundary", fd.BOUNDARY_MODES)
    def test_bitwise_equal_to_per_mode_stencils(self, rng, boundary):
        for _ in range(300):
            m = int(rng.randint(5, 257))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            v = scale * rng.standard_normal(m)
            h = float(rng.uniform(1e-3, 1.0))
            first, second = fd.derivatives(v, h, boundary)
            assert first.tobytes() == reference_deriv1(v, h, boundary).tobytes()
            assert second.tobytes() == reference_deriv2(v, h, boundary).tobytes()
            assert fd.deriv1(v, h, boundary).tobytes() == first.tobytes()

    def test_one_validation_per_call(self, monkeypatch):
        calls = []
        check = fd._check

        def counted(values, boundary):
            calls.append(boundary)
            return check(values, boundary)

        monkeypatch.setattr(fd, "_check", counted)
        fd.derivatives(np.linspace(1.0, 2.0, 9), 0.125, "neumann")
        fd.deriv1(np.linspace(1.0, 2.0, 9), 0.125, "periodic")
        assert calls == ["neumann", "periodic"]

    @pytest.mark.parametrize("values, boundary", [
        (np.ones(4), "neumann"),
        (np.ones((3, 3)), "periodic"),
        (np.ones(9), "dirichlet"),
    ])
    def test_rejects_bad_grids(self, values, boundary):
        with pytest.raises(DomainError):
            fd.derivatives(values, 0.1, boundary)
        with pytest.raises(DomainError):
            fd.deriv1(values, 0.1, boundary)


class TestPeriodicMode:
    @staticmethod
    def _errors(m):
        """Max errors of both stencils on a trigonometric profile, M nodes."""
        h = 2.0 * np.pi / m
        z = h * np.arange(m)
        f = 1.0 + 0.3 * np.sin(z) + 0.1 * np.cos(2.0 * z)
        fp = 0.3 * np.cos(z) - 0.2 * np.sin(2.0 * z)
        fpp = -0.3 * np.sin(z) - 0.4 * np.cos(2.0 * z)
        first, second = fd.derivatives(f, h, "periodic")
        return np.abs(first - fp).max(), np.abs(second - fpp).max()

    def test_both_stencils_converge_at_second_order(self):
        errs = [self._errors(m) for m in (32, 64, 128, 256)]
        for coarse, fine in zip(errs, errs[1:]):
            for e_coarse, e_fine in zip(coarse, fine):
                assert np.log2(e_coarse / e_fine) == pytest.approx(2.0, abs=0.05)
        assert max(errs[-1]) < 2e-4     # about h^2/6 max|f'''| at M = 256
