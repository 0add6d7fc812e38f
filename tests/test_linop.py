import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from illposed import cli, diagnostics, regularization
from illposed.errors import InvalidInputError, NumericalFailureError
from illposed.linop import (
    DenseOperator,
    SvdFactors,
    hat_operator,
    is_identifiable_linear,
    linear_parameter_identifiable,
    model_resolution,
    null_space,
    pseudoinverse,
    svd,
)

RNG = np.random.default_rng(20240811)


def random_full_rank(rows, cols):
    while True:
        a = RNG.standard_normal((rows, cols))
        if np.linalg.matrix_rank(a) == min(rows, cols):
            return DenseOperator(a)


class TestDenseOperator:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            DenseOperator([[1.0, np.nan]])
        with pytest.raises(InvalidInputError):
            DenseOperator([[np.inf]])

    def test_rejects_empty_and_1d(self):
        with pytest.raises(InvalidInputError):
            DenseOperator(np.zeros((0, 3)))
        with pytest.raises(InvalidInputError):
            DenseOperator([1.0, 2.0])

    def test_immutable(self):
        a = DenseOperator(np.eye(2))
        with pytest.raises(ValueError):
            a.matrix[0, 0] = 7.0

    def test_adopts_a_read_only_array_that_owns_its_memory(self):
        m = np.eye(2)
        m.flags.writeable = False
        assert DenseOperator(m).matrix is m

    def test_copies_a_read_only_view_of_a_writeable_array(self):
        base = np.eye(2)
        view = base[:, :]
        view.flags.writeable = False
        a = DenseOperator(view)
        base[0, 0] = 5.0
        assert a.matrix[0, 0] == 1.0


class TestSvd:
    def test_factors_need_a_nonincreasing_spectrum(self):
        with pytest.raises(InvalidInputError, match="^singular values must be nonincreasing$"):
            SvdFactors(np.eye(2), np.array([1.0, 2.0]), np.eye(2))

    def test_factors_leave_the_callers_arrays_alone(self):
        arrays = (np.eye(2), np.array([2.0, 1.0]), np.eye(2))
        f = SvdFactors(*arrays)
        fields = (f.left_vectors, f.singular_values, f.right_vectors)
        for mine, field in zip(arrays, fields):
            assert mine.flags.writeable and field is not mine
            assert not field.flags.writeable
        arrays[0][0, 0] = 7.0
        assert f.left_vectors[0, 0] == 1.0

    @pytest.mark.parametrize("field", range(3))
    def test_factors_copy_a_read_only_view_of_a_writeable_array(self, field):
        # the view cannot be written, but its owner can: rewriting the owner
        # must change neither the vectors nor the checked spectrum
        arrays = [np.eye(2), np.array([2.0, 1.0]), np.eye(2)]
        base = arrays[field]
        arrays[field] = base[:]
        arrays[field].flags.writeable = False
        f = SvdFactors(*arrays)
        base[0] = 0.5
        assert np.array_equal(f.singular_values, [2.0, 1.0])
        assert np.array_equal(f.left_vectors, np.eye(2))
        assert np.array_equal(f.right_vectors, np.eye(2))

    def test_full_rank_factors_share_the_cached_vectors(self):
        a = random_full_rank(5, 3)
        f = svd(a)
        assert np.shares_memory(f.left_vectors, a._factors[0])
        assert np.shares_memory(f.right_vectors, a._factors[2])

    def test_identity_spectrum(self):
        f = svd(DenseOperator(np.eye(3)))
        assert np.allclose(f.singular_values, [1, 1, 1])
        assert f.rank == 3

    def test_diagonal_spectrum(self):
        f = svd(DenseOperator(np.diag([3.0, 1.0])))
        assert np.allclose(f.singular_values, [3, 1])

    def test_rank_one_row(self):
        # sigma = sqrt(P P^T) for a single row
        f = svd(DenseOperator([[1.0, 1.0]]))
        assert f.rank == 1
        assert abs(f.singular_values[0] - np.sqrt(2)) < 1e-14

    def test_reconstruction_bound(self):
        a = random_full_rank(7, 4)
        f = svd(a)
        rebuilt = f.left_vectors @ np.diag(f.singular_values) @ f.right_vectors.T
        assert np.max(np.abs(rebuilt - a.matrix)) <= 1e-10 * f.singular_values[0]

    def test_orthonormal_factors(self):
        a = random_full_rank(6, 3)
        f = svd(a)
        assert np.max(np.abs(f.left_vectors.T @ f.left_vectors - np.eye(3))) < 1e-10
        assert np.max(np.abs(f.right_vectors.T @ f.right_vectors - np.eye(3))) < 1e-10

    def test_truncation_reports_discarded(self):
        a = DenseOperator(np.diag([1.0, 1e-13]))
        f = svd(a, rtol=1e-10)
        assert f.rank == 1
        assert np.allclose(f.singular_values, [1.0])
        # the dropped tail stays visible in the full spectrum
        assert np.allclose(diagnostics.diagnose(a, rtol=1e-10).spectrum, [1.0, 1e-13])

    def test_negative_rtol(self):
        with pytest.raises(InvalidInputError):
            svd(DenseOperator(np.eye(2)), rtol=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rtol(self, bad):
        for fn in (svd, null_space, is_identifiable_linear):
            with pytest.raises(InvalidInputError, match="finite"):
                fn(DenseOperator(np.eye(2)), rtol=bad)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "fn",
        [
            svd, null_space, pseudoinverse, is_identifiable_linear,
            lambda a, rtol: linear_parameter_identifiable(a, a, rtol),
        ],
        ids=["svd", "null_space", "pseudoinverse", "is_identifiable_linear",
             "linear_parameter_identifiable"],
    )
    def test_bad_rtol_is_rejected_before_any_lapack_call(self, monkeypatch, fn, bad):
        calls = count_lapack_svd(monkeypatch)
        with pytest.raises(InvalidInputError, match="^rtol must be >= 0 and finite"):
            fn(DenseOperator(np.eye(50)), rtol=bad)
        assert calls == []


class TestPseudoinverse:
    def test_scalar(self):
        assert np.allclose(pseudoinverse(DenseOperator([[2.0]])).matrix, [[0.5]])

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (1, 1)])
    def test_zero_operator_has_zero_pseudoinverse(self, shape):
        pinv = pseudoinverse(DenseOperator(np.zeros(shape))).matrix
        assert pinv.shape == shape[::-1]
        assert not np.any(pinv)

    def test_left_inverse_on_full_column_rank(self):
        a = random_full_rank(5, 2)
        pinv = pseudoinverse(a).matrix
        assert np.max(np.abs(pinv @ a.matrix - np.eye(2))) < 1e-10

    def test_column_of_ones(self):
        # normal equations by hand: (A^T A)^-1 A^T = (1/2) (1, 1)
        pinv = pseudoinverse(DenseOperator([[1.0], [1.0]])).matrix
        assert np.allclose(pinv, [[0.5, 0.5]])

    def test_matches_normal_equations_when_well_conditioned(self):
        a = random_full_rank(6, 3)
        m = a.matrix
        oracle = np.linalg.solve(m.T @ m, m.T)
        got = pseudoinverse(a).matrix
        assert np.max(np.abs(got - oracle)) <= 1e-8 * np.max(np.abs(oracle))

    def test_penrose_conditions(self):
        for rows, cols in [(5, 3), (3, 5), (4, 4)]:
            a = DenseOperator(RNG.standard_normal((rows, cols)))
            g = pseudoinverse(a).matrix
            m = a.matrix
            tol = 1e-8 * svd(a).singular_values[0]
            assert np.max(np.abs(m @ g @ m - m)) <= tol
            assert np.max(np.abs(g @ m @ g - g)) <= tol
            assert np.max(np.abs((m @ g).T - m @ g)) <= tol
            assert np.max(np.abs((g @ m).T - g @ m)) <= tol

    def test_fisher_consistency_linear(self):
        # an identifiable operator recovers every parameter it generated
        a = random_full_rank(8, 3)
        pinv = pseudoinverse(a).matrix
        for _ in range(25):
            theta = RNG.standard_normal(3)
            rec = pinv @ (a.matrix @ theta)
            assert np.linalg.norm(rec - theta) <= 1e-8 * np.linalg.norm(theta)


class TestProjectors:
    def test_hat_identity_for_invertible(self):
        a = DenseOperator([[2.0, 1.0], [0.0, 3.0]])
        assert np.max(np.abs(hat_operator(a).matrix - np.eye(2))) < 1e-12

    def test_hat_column_of_ones(self):
        hat = hat_operator(DenseOperator([[1.0], [1.0]])).matrix
        assert np.allclose(hat, [[0.5, 0.5], [0.5, 0.5]])

    def test_hat_trace_equals_rank(self):
        a = random_full_rank(5, 2)
        hat = hat_operator(a).matrix
        assert abs(np.trace(hat) - 2.0) < 1e-8
        assert np.max(np.abs(hat @ hat - hat)) < 1e-8
        assert np.array_equal(hat, hat.T)

    def test_model_resolution_full_rank(self):
        a = random_full_rank(6, 4)
        assert np.max(np.abs(model_resolution(a).matrix - np.eye(4))) < 1e-10

    def test_model_resolution_row_of_ones(self):
        res = model_resolution(DenseOperator([[1.0, 1.0]])).matrix
        assert np.allclose(res, [[0.5, 0.5], [0.5, 0.5]])
        assert np.max(np.abs(res @ res - res)) < 1e-8

    def test_model_resolution_zero_column(self):
        a = DenseOperator(np.array([[1.0, 0.0], [0.0, 0.0]]))
        res = model_resolution(a).matrix
        assert abs(res[1, 1]) < 1e-12


class TestIdentifiability:
    def test_tall_full_rank(self):
        assert is_identifiable_linear(DenseOperator([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))

    def test_row_of_ones_has_null_space(self):
        assert not is_identifiable_linear(DenseOperator([[1.0, 1.0]]))

    def test_near_singular_below_tolerance(self):
        # 1 + 1e-16 rounds to 1.0, so the matrix is exactly rank one
        a = DenseOperator([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        assert not is_identifiable_linear(a)

    def test_null_space_dimension(self):
        basis = null_space(DenseOperator([[1.0, 1.0]]))
        assert basis.shape == (2, 1)
        assert abs(basis[0, 0] + basis[1, 0]) < 1e-12


class TestParameterIdentifiability:
    def test_coordinate_not_identifiable(self):
        p = DenseOperator([[1.0, 1.0]])
        assert not linear_parameter_identifiable(p, DenseOperator([[1.0, 0.0]]))

    def test_sum_parameter_identifiable(self):
        p = DenseOperator([[1.0, 1.0]])
        assert linear_parameter_identifiable(p, DenseOperator([[1.0, 1.0]]))

    def test_identifiable_forward_any_parameter(self):
        p = random_full_rank(5, 3)
        q = DenseOperator(RNG.standard_normal((2, 3)))
        assert linear_parameter_identifiable(p, q)

    def test_exact_zero_on_the_null_space_meets_a_zero_tolerance(self):
        # q vanishes on null(P) exactly: max |q N| = 0 <= 0 * ||q||
        p, q = DenseOperator(np.diag([1.0, 0.0])), DenseOperator([[1.0, 0.0]])
        assert linear_parameter_identifiable(p, q, rtol=0)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            linear_parameter_identifiable(
                DenseOperator([[1.0, 1.0]]), DenseOperator([[1.0, 0.0, 0.0]])
            )

    def test_agrees_with_null_direction_probe(self):
        # pairs theta1, theta2 with P theta1 = P theta2 never separate q
        # values when the test says identifiable
        p = DenseOperator([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        q_ok = DenseOperator([[2.0, 2.0, -1.0]])
        q_bad = DenseOperator([[1.0, 0.0, 0.0]])
        assert linear_parameter_identifiable(p, q_ok)
        assert not linear_parameter_identifiable(p, q_bad)
        basis = null_space(p)
        for _ in range(1000):
            theta1 = RNG.standard_normal(3)
            theta2 = theta1 + basis @ RNG.standard_normal(basis.shape[1])
            assert np.linalg.norm(p.matrix @ (theta1 - theta2)) < 1e-10
            assert np.linalg.norm(q_ok.matrix @ (theta1 - theta2)) < 1e-10


def exact_rank(rows) -> int:
    """Rank of an integer matrix by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def integer_rows(rows, cols, bound):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(np.array)


@st.composite
def signed_selection(draw, rows, cols):
    """rows x cols, each row zero or a signed unit vector."""
    s = np.zeros((rows, cols), dtype=int)
    for i in range(rows):
        s[i, draw(st.integers(0, cols - 1))] = draw(st.sampled_from([-1, 0, 1]))
    return s


@st.composite
def integer_matrices(draw):
    """Up to 6 x 6 with entries in [-3, 3], as S B T^T: B is a k x l integer matrix,
    and the signed selections S and T repeat, negate or zero its rows and columns,
    so that deficient ranks are common."""
    m, n, k, l = (draw(st.integers(1, 6)) for _ in range(4))
    b = draw(integer_rows(k, l, 3))
    return draw(signed_selection(m, k)) @ b @ draw(signed_selection(n, l)).T


class TestExactRankOracle:
    """The verdicts at the default tolerance against exact rational arithmetic,
    on operators whose smallest nonzero singular value clears the tolerance 10x."""

    @given(integer_matrices(), st.data())
    def test_rank_and_parameter_identifiability_are_exact(self, a, data):
        rank = exact_rank(a.tolist())
        p = DenseOperator(a)
        spectrum = diagnostics.diagnose(p).spectrum
        tolerance = max(a.shape) * np.finfo(float).eps * spectrum[0]
        assume(rank == 0 or spectrum[rank - 1] > 10 * tolerance)
        assert diagnostics.diagnose(p).numerical_rank == rank
        # q in the row space of P about half the time: rank [P; q] = rank P
        if data.draw(st.booleans()):
            q = data.draw(integer_rows(1, a.shape[0], 1)) @ a
        else:
            q = data.draw(integer_rows(1, a.shape[1], 3))
        inside = exact_rank(np.vstack([a, q]).tolist()) == rank
        assert linear_parameter_identifiable(p, DenseOperator(q)) == inside


def count_lapack_svd(monkeypatch, fail=False):
    """Replace numpy's SVD by a wrapper that records each call (or raises)."""
    calls = []
    lapack_svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(kwargs)
        if fail:
            raise np.linalg.LinAlgError("forced non-convergence")
        return lapack_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def svd_kinds(calls):
    """'values' or 'thin'/'full' for each recorded ``np.linalg.svd`` call."""
    kinds = []
    for kwargs in calls:
        if not kwargs.get("compute_uv", True):
            kinds.append("values")
        else:
            kinds.append("full" if kwargs.get("full_matrices", True) else "thin")
    return kinds


@st.composite
def rank_deficient_operators(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    rank = draw(st.integers(0, min(rows, cols) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return DenseOperator(rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols)))


class TestSharedFactorization:
    def test_one_factorization_serves_every_caller(self, monkeypatch):
        a = random_full_rank(6, 6)
        theta = RNG.standard_normal(6)
        d = a.matrix @ theta + 0.01 * RNG.standard_normal(6)
        calls = count_lapack_svd(monkeypatch)
        svd(a)
        svd(a, rtol=1e-3)
        svd(a, rtol=0.0)
        pseudoinverse(a)
        hat_operator(a)
        model_resolution(a)
        is_identifiable_linear(a)
        null_space(a)
        linear_parameter_identifiable(a, DenseOperator(np.eye(6)[:2]))
        diagnostics.diagnose(a)
        diagnostics.bounded_away_from_zero(a)
        diagnostics.stability_bound_check(a, theta, theta + 0.1)
        diagnostics.perturbation_amplification(a, d, d + 0.01)
        regularization.tikhonov_solve(a, d, 1e-3)
        regularization.tsvd_solve(a, d, 3)
        regularization.discrepancy_select(a, d, 0.1 * np.linalg.norm(d))
        regularization.restriction_sequence(a, d, [1, 3, 6])
        assert len(calls) == 1

    def test_diagnose_alone_computes_values_only(self, monkeypatch):
        a = random_full_rank(6, 6)
        calls = count_lapack_svd(monkeypatch)
        diagnostics.diagnose(a)
        assert svd_kinds(calls) == ["values"]

    def test_diagnose_after_svd_reuses_its_values(self, monkeypatch):
        a = random_full_rank(6, 6)
        calls = count_lapack_svd(monkeypatch)
        f = svd(a)
        report = diagnostics.diagnose(a)
        assert svd_kinds(calls) == ["thin"]
        assert np.array_equal(report.spectrum[: f.rank], f.singular_values)
        assert a._factors[1] is a._spectrum

    def test_svd_after_diagnose_adopts_its_values(self, monkeypatch):
        a = random_full_rank(6, 6)
        calls = count_lapack_svd(monkeypatch)
        report = diagnostics.diagnose(a)
        f = svd(a)
        assert svd_kinds(calls) == ["values", "thin"]
        assert np.array_equal(f.singular_values, report.spectrum[: f.rank])
        assert a._factors[1] is a._spectrum

    def test_diagnose_after_null_space_reuses_its_values(self, monkeypatch):
        a = random_full_rank(6, 6)
        calls = count_lapack_svd(monkeypatch)
        null_space(a)
        diagnostics.diagnose(a)
        assert svd_kinds(calls) == ["thin"]
        assert a._spectrum is a._factors[1]

    def test_analyze_with_param_factors_once(self, monkeypatch, tmp_path, capsys):
        a, q = tmp_path / "a.csv", tmp_path / "q.csv"
        a.write_text("1,1,0\n1,1,0\n0,0,1\n")
        q.write_text("2,2,-1\n")
        calls = count_lapack_svd(monkeypatch)
        assert cli.run(["analyze", str(a), "--param", str(q)]) == 0
        # the operator once, with vectors; ||q|| from q's values alone
        assert svd_kinds(calls) == ["thin", "values"]
        assert '"parameter_identifiable": true' in capsys.readouterr().out

    def test_lapack_failure_is_numerical_failure(self, monkeypatch):
        count_lapack_svd(monkeypatch, fail=True)
        for fn in (svd, null_space, diagnostics.diagnose):
            with pytest.raises(NumericalFailureError, match="did not converge"):
                fn(DenseOperator(np.eye(3)))

    @pytest.mark.parametrize("stage", ["_spectrum", "_factors"])
    @pytest.mark.parametrize(
        "rows",
        [
            [[1.797e308, 1.797e308], [1.797e308, -1.797e308]],  # kappa = 1
            [[0.0, 1.797e308], [1e308, 1.797e308]],
            [[1.797e308, 1.797e308]],  # wide: V is complete
        ],
        ids=["orthogonal", "square", "wide"],
    )
    def test_largest_singular_value_past_the_range(self, rows, stage):
        # LAPACK returns sigma_1 = inf, which the rank test reads as rank 0
        a = DenseOperator(rows)
        with pytest.raises(NumericalFailureError, match="largest singular value overflows"):
            getattr(a, stage)
        assert "_spectrum" not in vars(a) and "_factors" not in vars(a)

    def test_largest_singular_value_at_the_top_of_the_range(self):
        s = DenseOperator([[1.797e308, 0.0], [0.0, 1.0]])._spectrum
        assert s.tolist() == [1.797e308, 1.0]

    def test_parameter_norm_failure_is_numerical_failure(self, monkeypatch):
        # ||q|| comes from q's cached spectrum, so its LAPACK failure maps too
        p, q = DenseOperator([[1.0, 1.0]]), DenseOperator([[1.0, 0.0]])
        svd(p)
        calls = count_lapack_svd(monkeypatch, fail=True)
        with pytest.raises(NumericalFailureError, match="did not converge"):
            linear_parameter_identifiable(p, q)
        assert svd_kinds(calls) == ["values"]

    def test_factors_are_read_only(self):
        a = DenseOperator([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        f = svd(a)
        arrays = (f.left_vectors, f.singular_values, f.right_vectors)
        before = [x.copy() for x in arrays]
        for x in arrays:
            with pytest.raises(ValueError):
                x[...] = 7.0
        g = svd(a)
        after = (g.left_vectors, g.singular_values, g.right_vectors)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    @pytest.mark.parametrize("rows", [6, 4])
    @pytest.mark.parametrize("rtol", [None, 0.0, 1e-3, 0.5])
    def test_null_space_is_the_tail_of_the_shared_factors(self, rows, rtol):
        # rank 3 with a spread spectrum, so each rtol cuts at its own place
        scaled = RNG.standard_normal((rows, 3)) * [1.0, 1e-2, 1e-6]
        a = DenseOperator(scaled @ RNG.standard_normal((3, 5)))
        basis = null_space(a, rtol)
        assert np.array_equal(basis, a._factors[2][:, svd(a, rtol).rank :])
        assert basis.flags.c_contiguous and basis.flags.writeable

    @given(rank_deficient_operators())
    def test_null_space_complements_right_vectors(self, a):
        f = svd(a)
        basis = null_space(a)
        sigma_max = a._spectrum[0]
        assert basis.shape == (a.cols, a.cols - f.rank)
        assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1])), initial=0.0) < 1e-10
        assert np.linalg.norm(a.matrix @ basis) <= 1e-10 * sigma_max
        assert np.max(np.abs(f.right_vectors.T @ basis), initial=0.0) < 1e-10
