import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from spikedcov import numkernel
from spikedcov.numkernel import RngStream


class TestRngStream:
    def test_same_key_reproduces(self):
        a = RngStream(12, 3).generator().standard_normal(16)
        b = RngStream(12, 3).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(12, 3).generator().standard_normal(16)
        b = RngStream(12, 4).generator().standard_normal(16)
        c = RngStream(13, 3).generator().standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_generator_restarts_each_call(self):
        stream = RngStream(7, 0)
        first = stream.generator().standard_normal(4)
        again = stream.generator().standard_normal(4)
        assert np.array_equal(first, again)

    def test_rejects_negative_key(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, -1)

    def test_default_index(self):
        assert RngStream(5).stream_index == 0

    @pytest.mark.parametrize("key", [(2**64, 0), (0, 2**64), (2**64 + 5, 0)])
    def test_rejects_key_past_64_bits(self, key):
        # Philox takes two 64-bit key words: a wider key is not wrapped onto
        # the stream of its low bits
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            RngStream(*key)

    def test_largest_key_draws(self):
        top = 2**64 - 1
        a = RngStream(top, top).generator().standard_normal(8)
        assert np.all(np.isfinite(a))
        assert np.array_equal(a, RngStream(top, top).generator().standard_normal(8))


class TestCheckSymmetric:
    def test_accepts_symmetric(self):
        s = np.array([[2.0, 1.0], [1.0, 3.0]])
        out = numkernel.check_symmetric(s)
        assert np.array_equal(out, s)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            numkernel.check_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            numkernel.check_symmetric(np.ones((2, 3)))
        with pytest.raises(ValueError):
            numkernel.check_symmetric(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestSymEig:
    def test_descending_and_reconstructs(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((8, 8))
        s = g @ g.T
        w, v = numkernel.sym_eig(s)
        assert np.all(np.diff(w) <= 0)
        assert np.allclose((v * w) @ v.T, s, atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(8), atol=1e-12)


class TestPsdSqrt:
    def test_root_squares_back(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((6, 6))
        s = g @ g.T
        r = numkernel.psd_sqrt(s)
        assert np.allclose(r @ r, s, atol=1e-10)
        assert np.allclose(r, r.T)

    def test_clamps_roundoff_negative(self):
        v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        s = v @ v.T
        s[0, 1] = s[1, 0] = s[0, 1] + 1e-17
        r = numkernel.psd_sqrt(s)
        assert np.all(np.isfinite(r))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="indefinite"):
            numkernel.psd_sqrt(np.diag([1.0, -0.5]))

    def test_rank_deficient_root_has_no_null_space_part(self):
        # the roundoff eigenvalues of a rank-3 matrix, near eps |S|, would
        # give the root entries near sqrt(eps |S|) in the null space
        g = np.random.default_rng(2).standard_normal((12, 3))
        null = np.linalg.svd(g)[0][:, 3:]
        r = numkernel.psd_sqrt(g @ g.T)
        assert np.max(np.abs(r @ null)) <= 1e-14 * np.max(np.abs(r))


class TestSvdFull:
    def test_reconstructs_with_descending_values(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((7, 7))
        trip = numkernel.svd_full(a)
        assert np.all(np.diff(trip.s) <= 0)
        assert np.allclose((trip.u * trip.s) @ trip.v.T, a, atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        trip = numkernel.svd_full(a)
        for j in range(5):
            i = int(np.argmax(np.abs(trip.u[:, j])))
            assert trip.u[i, j] > 0.0

    def test_deterministic_under_column_flip_of_input_factors(self):
        a = np.diag([3.0, 2.0])
        trip = numkernel.svd_full(a)
        assert np.allclose(trip.u, np.eye(2))
        assert np.allclose(trip.v, np.eye(2))
        assert np.allclose(trip.s, [3.0, 2.0])

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
    def test_thin_rectangular(self, shape):
        a = np.random.default_rng(5).standard_normal(shape)
        trip = numkernel.svd_full(a)
        k = min(shape)
        assert trip.u.shape == (shape[0], k) and trip.v.shape == (shape[1], k)
        assert trip.s.shape == (k,) and np.all(np.diff(trip.s) <= 0)
        assert np.allclose((trip.u * trip.s) @ trip.v.T, a, atol=1e-12)
        for j in range(k):
            assert trip.u[int(np.argmax(np.abs(trip.u[:, j]))), j] > 0.0

    def test_rejects_non_finite_and_one_dimensional(self):
        with pytest.raises(ValueError, match="finite"):
            numkernel.svd_full(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="2-d"):
            numkernel.svd_full(np.ones(3))

    def test_retries_with_gesvd_when_gesdd_does_not_converge(self, monkeypatch):
        # a zero column makes the input exactly rank-deficient, so it takes
        # the gesdd route rather than the Gram route
        a = np.random.default_rng(4).standard_normal((6, 6))
        a[:, 5] = 0.0
        normal = numkernel.svd_full(a)
        gesdd = np.linalg.svd
        failures = []

        def fails_once(*args, **kwargs):
            if not failures:
                failures.append(args[0].shape)
                raise np.linalg.LinAlgError("SVD did not converge")
            return gesdd(*args, **kwargs)

        monkeypatch.setattr(numkernel.np.linalg, "svd", fails_once)
        retried = numkernel.svd_full(a)
        assert failures == [(6, 6)]
        assert np.allclose(retried.s, normal.s, rtol=1e-12, atol=0.0)
        assert np.allclose((retried.u * retried.s) @ retried.v.T, a, atol=1e-12)
        assert np.allclose(retried.u, normal.u, atol=1e-12)
        assert np.allclose(retried.v, normal.v, atol=1e-12)
        for j in range(6):
            assert retried.u[int(np.argmax(np.abs(retried.u[:, j]))), j] > 0.0


def _conditioned(shape, kappa, seed=0):
    """A matrix of ``shape`` with log-spaced singular values from 1 down to 1/kappa."""
    rng = np.random.default_rng(seed)
    m, n = shape
    k = min(shape)
    q1, _ = np.linalg.qr(rng.standard_normal((m, k)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return (q1 * np.logspace(0.0, -np.log10(kappa), k)) @ q2.T


def _gesdd_reference(a):
    """The gesdd route as it stands alone: LAPACK's SVD with fix_signs."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    u, v = numkernel.fix_signs(u, vh.T)
    return u, s, v


def _counting_svd(monkeypatch):
    """Patch np.linalg.svd to record the shape of every matrix it is given."""
    calls = []
    gesdd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return gesdd(*args, **kwargs)

    monkeypatch.setattr(numkernel.np.linalg, "svd", counted)
    return calls


class TestSvdFullRoutes:
    SHAPES = [(40, 25), (25, 40), (30, 30)]
    KAPPAS = [10.0, 1e3, 0.99 * numkernel.GRAM_COND_MAX]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_gram_route_accuracy(self, shape, kappa, monkeypatch):
        a = _conditioned(shape, kappa)
        reference = np.linalg.svd(a, compute_uv=False)
        calls = _counting_svd(monkeypatch)
        trip = numkernel.svd_full(a)
        assert calls == []
        k = min(shape)
        assert trip.u.shape == (shape[0], k) and trip.v.shape == (shape[1], k)
        assert np.all(np.diff(trip.s) <= 0)
        assert np.max(np.abs(trip.s - reference) / reference) <= 1e-12
        assert np.max(np.abs(trip.u.T @ trip.u - np.eye(k))) <= 1e-9
        assert np.max(np.abs(trip.v.T @ trip.v - np.eye(k))) <= 1e-9
        assert np.max(np.abs((trip.u * trip.s) @ trip.v.T - a)) <= 1e-12 * np.linalg.norm(a, 2)
        lead = trip.u[np.argmax(np.abs(trip.u), axis=0), np.arange(k)]
        assert np.all(lead > 0.0)

    def test_gram_route_values_descend_at_ties(self, monkeypatch):
        # repeated singular values: the column norms of B W come out of
        # eigh's order by roundoff and must be sorted
        rng = np.random.default_rng(8)
        q1, _ = np.linalg.qr(rng.standard_normal((30, 20)))
        q2, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        a = (q1 * np.repeat([2.0, 1.0], 10)) @ q2.T
        calls = _counting_svd(monkeypatch)
        trip = numkernel.svd_full(a)
        assert calls == []
        assert np.all(np.diff(trip.s) <= 0)
        assert np.max(np.abs(trip.s - np.repeat([2.0, 1.0], 10))) <= 1e-14
        assert np.max(np.abs((trip.u * trip.s) @ trip.v.T - a)) <= 1e-14

    def test_gram_route_is_scale_free(self):
        # the Gram is formed after an exact power-of-two scaling, so entries
        # whose squares overflow or underflow give the same vectors
        a = _conditioned((12, 9), 50.0)
        base = numkernel.svd_full(a)
        for factor in (2.0**600, 2.0**-600):
            trip = numkernel.svd_full(a * factor)
            assert np.array_equal(trip.s, base.s * factor)
            assert np.array_equal(trip.u, base.u) and np.array_equal(trip.v, base.v)

    @pytest.mark.parametrize("name", ["over_bound", "rank_deficient", "zero", "no_columns"])
    def test_gesdd_route_bytes(self, name, monkeypatch):
        a = {
            "over_bound": _conditioned((30, 20), 1.05 * numkernel.GRAM_COND_MAX),
            "rank_deficient": np.random.default_rng(6).standard_normal((8, 5))
            @ np.random.default_rng(7).standard_normal((5, 8)),
            "zero": np.zeros((5, 3)),
            "no_columns": np.zeros((3, 0)),
        }[name]
        u, s, v = _gesdd_reference(a)
        calls = _counting_svd(monkeypatch)
        trip = numkernel.svd_full(a)
        assert calls == [a.shape]
        for got, want in ((trip.u, u), (trip.s, s), (trip.v, v)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_gesdd_route_when_eigh_raises(self, monkeypatch):
        a = _conditioned((9, 6), 10.0)
        u, s, v = _gesdd_reference(a)

        def raises(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(numkernel.np.linalg, "eigh", raises)
        trip = numkernel.svd_full(a)
        for got, want in ((trip.u, u), (trip.s, s), (trip.v, v)):
            assert got.tobytes() == want.tobytes()


class TestHaarOrthogonal:
    def test_orthogonal_and_deterministic(self):
        q1 = numkernel.haar_orthogonal(10, RngStream(42, 1).generator())
        q2 = numkernel.haar_orthogonal(10, RngStream(42, 1).generator())
        assert np.array_equal(q1, q2)
        assert np.allclose(q1.T @ q1, np.eye(10), atol=1e-12)

    def test_advances_shared_generator(self):
        gen = RngStream(9, 0).generator()
        q1 = numkernel.haar_orthogonal(4, gen)
        q2 = numkernel.haar_orthogonal(4, gen)
        assert not np.array_equal(q1, q2)
        assert np.allclose(q2.T @ q2, np.eye(4), atol=1e-12)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            numkernel.haar_orthogonal(0, RngStream(0).generator())

    @pytest.mark.parametrize("k", [1, 2, 5, 7])
    def test_leading_columns_match_full_matrix(self, k):
        # factoring only G[:, :k] gives the full Q's first k columns, and the
        # whole p x p draw still advances the stream to the same position
        full_gen = RngStream(21, 3).generator()
        part_gen = RngStream(21, 3).generator()
        full = numkernel.haar_orthogonal(7, full_gen)
        part = numkernel.haar_orthogonal(7, part_gen, columns=k)
        assert part.shape == (7, k)
        assert np.max(np.abs(part - full[:, :k])) <= 1e-14
        assert np.array_equal(part_gen.standard_normal(5), full_gen.standard_normal(5))

    @pytest.mark.parametrize("k", [0, 8])
    def test_rejects_bad_column_count(self, k):
        with pytest.raises(ValueError):
            numkernel.haar_orthogonal(7, RngStream(0).generator(), columns=k)

    def test_rotation_invariance_of_first_column_mean(self):
        # Haar columns are uniform on the sphere: the first coordinate of the
        # first column has mean 0 and variance 1/p.
        p, reps = 5, 4000
        gen = RngStream(100, 0).generator()
        vals = np.array([numkernel.haar_orthogonal(p, gen)[0, 0] for _ in range(reps)])
        assert abs(vals.mean()) < 5.0 / np.sqrt(reps * (1.0 / p))
        assert abs(vals.var() - 1.0 / p) < 0.02


class TestMapReplicates:
    def test_results_in_replicate_order_within_the_budget(self, fake_blas):
        fake = fake_blas(3)
        idents = set()

        def replicate(i):
            idents.add(threading.get_ident())
            time.sleep(0.002 * (7 - i))  # later replicates finish first
            return i * i

        assert numkernel._map_replicates(replicate, 7) == [i * i for i in range(7)]
        assert threading.get_ident() not in idents and len(idents) <= 3
        assert fake.sets == [1, 3]

    def test_count_restored_when_a_replicate_raises(self, fake_blas):
        fake = fake_blas(2)

        def replicate(i):
            if i == 2:
                raise ArithmeticError("replicate 2")
            return i

        with pytest.raises(ArithmeticError, match="replicate 2"):
            numkernel._map_replicates(replicate, 4)
        assert fake.sets == [1, 2]

    def test_no_handle_runs_the_plain_loop(self, monkeypatch):
        monkeypatch.setattr(numkernel, "_blas_threads", lambda: None)
        idents = []
        out = numkernel._map_replicates(lambda i: idents.append(threading.get_ident()) or i, 3)
        assert out == [0, 1, 2]
        assert idents == [threading.get_ident()] * 3

    def test_more_workers_than_cores_under_fast_switching(self, fake_blas):
        # every result lands in its own slot however often threads switch
        fake_blas(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = numkernel._map_replicates(lambda i: float(np.sum(np.arange(i + 1))), 400)
        finally:
            sys.setswitchinterval(interval)
        assert out == [i * (i + 1) / 2 for i in range(400)]

    def test_openblas_count_reads_and_sets(self, openblas_two_threads):
        get, put = numkernel._blas_threads()
        put(1)
        assert get() == 1
        put(2)
        assert openblas_two_threads() == 2

    def test_import_does_no_lookup(self):
        src = pathlib.Path(numkernel.__file__).parents[1]
        code = (
            "import sys\n"
            "import spikedcov.cli, spikedcov.simlab\n"
            "from spikedcov import numkernel\n"
            "print(numkernel._blas_threads.cache_info().misses, 'concurrent.futures' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        assert out.stdout.split() == ["0", "False"]
