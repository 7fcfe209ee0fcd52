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


def _two_rule_flux_divergence(coef, values, h, boundary):
    """The flux form with its own boundary rules: np.roll when periodic,
    quadratic value and linear coefficient ghosts when open."""
    c, v = np.asarray(coef, float), np.asarray(values, float)
    if boundary == "periodic":
        c_half = 0.5 * (c + np.roll(c, -1))
        flux = c_half * (np.roll(v, -1) - v) / h
        return (flux - np.roll(flux, 1)) / h
    out = np.empty_like(v)
    c_half = 0.5 * (c[:-1] + c[1:])
    flux = c_half * (v[1:] - v[:-1]) / h
    out[1:-1] = (flux[1:] - flux[:-1]) / h
    flux_left = 0.5 * (3.0 * c[0] - c[1]) * (v[0] - (3.0 * v[0] - 3.0 * v[1] + v[2])) / h
    out[0] = (flux[0] - flux_left) / h
    flux_right = 0.5 * (3.0 * c[-1] - c[-2]) * ((3.0 * v[-1] - 3.0 * v[-2] + v[-3]) - v[-1]) / h
    out[-1] = (flux_right - flux[-1]) / h
    return out


class TestFluxDivergenceOnTheGhostRule:
    def test_exact_on_a_cubic_at_every_node(self):
        z = np.linspace(-1.0, 2.0, 33)
        out = fd.flux_divergence(np.ones_like(z), z ** 3, z[1] - z[0])
        np.testing.assert_allclose(out, 6.0 * z, rtol=0.0, atol=1e-9)

    def test_open_ends_are_closer_than_the_two_rule_form(self):
        z = np.linspace(-1.0, 2.0, 65)
        h = z[1] - z[0]
        exact = 4.0 * z * np.cos(2.0 * z) - 4.0 * (1.0 + z ** 2) * np.sin(2.0 * z)
        errors = [np.abs(form(1.0 + z ** 2, np.sin(2.0 * z), h, "neumann") - exact)[[0, -1]]
                  for form in (fd.flux_divergence, _two_rule_flux_divergence)]
        assert errors[0].max() < 0.2 * errors[1].max()

    @pytest.mark.parametrize("boundary", fd.BOUNDARY_MODES)
    def test_bitwise_equal_to_the_two_rule_form_where_the_rules_agree(self, rng, boundary):
        # every periodic node, and every open node but the two ends
        cut = slice(None) if boundary == "periodic" else slice(1, -1)
        for _ in range(300):
            m = int(rng.randint(5, 301))
            h = float(rng.uniform(1e-3, 1.0))
            coef = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(m)
            values = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(m)
            new = fd.flux_divergence(coef, values, h, boundary)
            old = _two_rule_flux_divergence(coef, values, h, boundary)
            assert new[cut].tobytes() == old[cut].tobytes()

    def test_grids_of_different_length_are_refused(self):
        with pytest.raises(DomainError, match="differ in length"):
            fd.flux_divergence(np.ones(9), np.ones(8), 0.1)
