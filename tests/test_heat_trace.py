import math

import numpy as np
import pytest

from trapspec.eigensolver import DIRICHLET, NEUMANN, Spectrum, exact_rectangle_spectrum
from trapspec.errors import DomainError, IllConditionedFit, TruncationWarning, WindowTooNarrow
from trapspec import heat_trace
from trapspec.geometry import Q_RECTANGLE
from trapspec.heat_trace import (
    default_t_window,
    fit_invariants,
    heat_trace_partial,
    weyl_tail_bound,
)


@pytest.fixture(scope="module")
def square_d():
    return exact_rectangle_spectrum(1, 1, 2000)


@pytest.fixture(scope="module")
def square_n():
    return exact_rectangle_spectrum(1, 1, 2000, bc=NEUMANN)


class TestHeatTracePartial:
    def test_single_term(self):
        s = Spectrum(eigenvalues=np.array([1.0]), boundary_condition=DIRICHLET)
        with pytest.warns(TruncationWarning):
            v = heat_trace_partial(s, 1.0)
        assert v == pytest.approx(math.exp(-1.0))

    def test_matches_direct_sum(self, square_d):
        t = 5e-3
        direct = float(np.sum(np.exp(-t * square_d.eigenvalues)))
        assert heat_trace_partial(square_d, t) == pytest.approx(direct, abs=1e-10)

    def test_large_t_dominant_mode(self, square_d):
        lam1 = square_d.eigenvalues[0]
        t = 2.0
        assert heat_trace_partial(square_d, t) == pytest.approx(math.exp(-t * lam1), rel=1e-12)

    def test_strictly_decreasing(self, square_d):
        ts = np.geomspace(1e-3, 1e-1, 30)
        vals = heat_trace_partial(square_d, ts)
        assert np.all(np.diff(vals) < 0)

    def test_rejects_nonpositive_t(self, square_d):
        with pytest.raises(ValueError):
            heat_trace_partial(square_d, 0.0)

    def test_truncation_warning_small_t(self, square_d):
        with pytest.warns(TruncationWarning):
            heat_trace_partial(square_d, 1e-6)


class TestFitInvariants:
    def test_square_dirichlet(self, square_d):
        inv = fit_invariants(square_d)
        assert inv.area == pytest.approx(1.0, rel=0.01)
        assert inv.perimeter == pytest.approx(4.0, rel=0.02)
        assert inv.corner_constant == pytest.approx(0.25, rel=0.10)
        assert inv.q_estimate == pytest.approx(Q_RECTANGLE, rel=0.05)

    def test_square_neumann(self, square_n):
        inv = fit_invariants(square_n)
        assert inv.area == pytest.approx(1.0, rel=0.01)
        assert inv.perimeter == pytest.approx(4.0, rel=0.02)

    def test_deterministic(self, square_d):
        a = fit_invariants(square_d)
        b = fit_invariants(square_d)
        assert a.to_dict() == b.to_dict()

    def test_window_auto_shrinks(self, square_d):
        inv = fit_invariants(square_d, t_window=(1e-6, 5e-3))
        t_min = inv.t_window[0]
        assert t_min > 1e-6
        assert weyl_tail_bound(square_d, t_min) <= 1e-8 * heat_trace_partial(
            square_d, t_min
        ) * (1 + 1e-12)

    def test_window_collapse_raises(self, square_d):
        with pytest.raises(WindowTooNarrow):
            fit_invariants(square_d, t_window=(1e-7, 2e-7))

    @pytest.mark.parametrize(
        "window", [(0.01, math.inf), (0.0, 0.01), (-0.01, 0.01), (0.02, 0.01), (math.nan, 0.01)]
    )
    def test_invalid_window_rejected(self, square_d, window, monkeypatch):
        monkeypatch.setattr(heat_trace, "_partial_sums", None)  # raised before any sum
        with pytest.raises(WindowTooNarrow, match="invalid window"):
            fit_invariants(square_d, t_window=window)

    @pytest.mark.parametrize("grid_size", [19, heat_trace.MAX_GRID_SIZE + 1, 10**13])
    def test_grid_size_out_of_range_rejected(self, square_d, grid_size, monkeypatch):
        monkeypatch.setattr(heat_trace, "_partial_sums", None)  # raised before any sum
        with pytest.raises(ValueError, match="grid_size"):
            fit_invariants(square_d, grid_size=grid_size)

    @pytest.mark.parametrize("grid_size", [20, heat_trace.MAX_GRID_SIZE])
    def test_grid_size_bounds_accepted(self, square_d, grid_size):
        assert fit_invariants(square_d, grid_size=grid_size).area == pytest.approx(1.0, rel=0.01)

    def test_default_window_sane(self, square_d):
        lo, hi = default_t_window(square_d)
        assert 1e-4 <= lo < hi <= 1e-1

    def test_default_window_needs_positive_top_eigenvalue(self):
        with pytest.raises(DomainError, match="positive top eigenvalue"):
            default_t_window(Spectrum(np.zeros(3), NEUMANN))

    def test_invalid_window_message_prints_plain_floats(self, square_d):
        with pytest.raises(WindowTooNarrow) as info:
            fit_invariants(square_d, t_window=(np.float64(math.inf), np.float64(0.1)))
        assert str(info.value) == "invalid window (inf, 0.1)"

    def test_condition_gate_is_the_design_condition_number(self, square_d, monkeypatch):
        # the gate reads lstsq's singular values; they give np.linalg.cond's number
        window = (2e-3, 1e-2)
        ts = np.geomspace(*window, 40)
        design = np.column_stack(
            [1.0 / (4 * math.pi * ts), -1.0 / (8 * np.sqrt(math.pi * ts)), np.ones_like(ts)]
        )
        cond = np.linalg.cond(design * np.sqrt(ts)[:, None])
        monkeypatch.setattr(heat_trace, "CONDITION_CAP", cond * (1 + 1e-9))
        fit_invariants(square_d, t_window=window)
        monkeypatch.setattr(heat_trace, "CONDITION_CAP", cond * (1 - 1e-9))
        with pytest.raises(IllConditionedFit):
            fit_invariants(square_d, t_window=window)

    def test_near_collinear_design_rejected(self, square_d):
        with pytest.raises(IllConditionedFit, match="condition number"):
            fit_invariants(square_d, t_window=(1e-2, 1e-2 * (1 + 1e-7)))

    def test_json_fields(self, square_d):
        d = fit_invariants(square_d).to_dict()
        assert set(d) == {"area", "perimeter", "K", "q", "residual", "tWindow"}
