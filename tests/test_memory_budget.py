"""The working-memory budget of the tables that are reduced as soon as they
are built: the manocha F2 rows' 2F1 family, saran_fk_triple's coefficient
rows and q_pochhammer_inf's factors.  Each is formed a slice at a time, so
its traced peak stays small, and each keeps the values of the whole-table
form bit for bit.

tracemalloc sees numpy's buffers, so its peak bounds the arrays a call holds
at once.  Each call runs once untraced first: scipy.special is loaded on first
use, and that import would otherwise count towards the peak.
"""

import tracemalloc

import numpy as np
import pytest

from saranfk import FkParams, QContext, saran_fk_triple
from saranfk.classical_cases import _f2_rows
from saranfk.core import q_pochhammer_inf
from saranfk.series import _shifted_2f1, _shifted_2f1_rows

MB = 1e6

# Seed-42 fk-cross-form point 20: its build grows N from 207 to 318 to 485.
FK_POINT = FkParams(2.2550420697318825, 1.1346636345985925, 1.6976750449026405, 2.2680374497188547,
                    0.591506249205995, 0.8478087921872006, 0.5499215460144127)
FK_ARGS = (0.32524846148570796, 0.3913003632974782, 0.32458603537047387)


def traced_peak(call):
    """(peak bytes traced during call(), its result)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestPeak:
    def test_f2_rows_streams_the_family(self):
        # K = 161 members over 4096 nodes would hold 5.3 MB stacked.
        X, Y = np.linspace(-0.3, 0.3, 4096), np.linspace(-0.4, 0.5, 4096)
        _f2_rows(0.3, 0.6, 0.7, 1.7, 1.9, X[:8], Y[:8], 3, 1e-12)
        peak, total = traced_peak(lambda: _f2_rows(0.3, 0.6, 0.7, 1.7, 1.9, X, Y, 161, 1e-12))
        assert total.shape == (4096,)
        assert peak <= 1.0 * MB

    def test_saran_fk_triple_row_blocks(self):
        # N = 485: the N x N tables alone would take 1.9 MB each.
        saran_fk_triple(FK_POINT, 0.1, 0.1, 0.1)
        peak, res = traced_peak(lambda: saran_fk_triple(FK_POINT, *FK_ARGS))
        assert res.converged
        assert peak <= 4.0 * MB

    def test_q_pochhammer_inf_slices(self):
        ctx = QContext(q=0.7)
        a = np.random.default_rng(1).uniform(-0.9, 0.9, (60, 28))
        q_pochhammer_inf(0.3, ctx)
        peak, out = traced_peak(lambda: q_pochhammer_inf(a, ctx))
        assert out.shape == a.shape
        assert peak <= 1.0 * MB


class TestSameBits:
    @pytest.mark.parametrize("a, z", [
        pytest.param(0.3, np.linspace(-0.8, 0.8, 101), id="array-z"),
        pytest.param(1.2 + 0.3j, np.linspace(-0.5, 0.5, 33) + 0.1j, id="complex-array-z"),
        pytest.param(0.3, -0.7, id="scalar-z"),
        pytest.param(-3.0, np.linspace(-0.8, 0.8, 101), id="reseed-array-z"),
        pytest.param(-3.0, 0.4, id="reseed-scalar-z"),
    ])
    def test_streamed_rows_equal_the_table(self, a, z):
        F = _shifted_2f1(a, 0.6, 1.9, z, 40, 1e-13)
        rows = list(_shifted_2f1_rows(a, 0.6, 1.9, z, 40, 1e-13))
        assert len(rows) == 40
        for k, row in enumerate(rows):
            assert row.dtype == F.dtype
            assert np.array_equal(row, F[k])
        # The F2 rows read the stream as they read the stacked table.
        X = np.linspace(-0.3, 0.3, 7)[:, None]
        row, want = np.ones_like(X), np.ones_like(X) * F[0]
        for m in range(39):
            row = row * ((a + m) * (0.5 + m) / ((1.7 + m) * (m + 1.0)) * X)
            want += row * F[m + 1]
        assert np.array_equal(_f2_rows(a, 0.5, 0.6, 1.7, 1.9, X, z, 40, 1e-13), want)

    @pytest.mark.parametrize("q", [0.2, 0.7, 0.9])
    def test_sliced_q_pochhammer_inf(self, q):
        ctx = QContext(q=q)
        rng = np.random.default_rng(3)
        a = rng.uniform(-3, 3, (60, 28)) + 1j * rng.uniform(-1, 1, (60, 28))
        powers = q ** np.arange(ctx.inf_product_terms, dtype=np.float64)
        for arr in (a, a.real, a[0, :5]):
            assert np.array_equal(q_pochhammer_inf(arr, ctx), np.prod(1 - np.multiply.outer(arr, powers), axis=-1))

    def test_saran_fk_triple_value(self):
        res = saran_fk_triple(FK_POINT, *FK_ARGS)
        assert repr(res.value) == "258742.85789031503"
        assert res.terms_used == 26041819
