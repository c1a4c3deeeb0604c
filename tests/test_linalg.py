"""Positive-definite factorization helpers."""
import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import kingflow
from kingflow._linalg import (
    JITTER_CAP,
    chol_solve,
    chol_spd,
    is_spd,
    spd_factor,
    spd_inverse,
)


def test_pd_matrix_factors_without_load():
    mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    loaded, lower, applied = chol_spd(mat, 0.0)
    assert applied == 0.0
    assert_allclose(lower @ lower.T, mat, rtol=1e-12)
    assert_allclose(loaded, mat)


def test_jitter_is_relative_to_mean_diagonal():
    mat = np.diag([4.0, 0.0])  # singular, trace 4, mean diagonal 2
    loaded, _, applied = chol_spd(mat, 1e-6)
    assert_allclose(applied, 2e-6)
    assert_allclose(loaded, mat + 2e-6 * np.eye(2))


def test_zero_matrix_escalates_from_unit_scale():
    loaded, _, applied = chol_spd(np.zeros((3, 3)), 0.0)
    # trace is zero, so the load scale falls back to 1 and escalation starts
    # at the smallest rung
    assert applied == pytest.approx(1e-10)
    assert_allclose(loaded, 1e-10 * np.eye(3))


def test_indefinite_matrix_fails_past_the_cap():
    mat = np.diag([1.0, -1.0])  # zero trace: absolute loads capped at JITTER_CAP
    assert JITTER_CAP < 1.0
    with pytest.raises(np.linalg.LinAlgError):
        chol_spd(mat, 1e-6)


def test_asymmetric_input_is_symmetrized():
    mat = np.array([[2.0, 1.0], [0.0, 2.0]])
    loaded, _, _ = chol_spd(mat, 0.0)
    assert_allclose(loaded, np.array([[2.0, 0.5], [0.5, 2.0]]))


def test_non_square_and_negative_jitter_rejected():
    with pytest.raises(ValueError):
        chol_spd(np.zeros((2, 3)), 0.0)
    with pytest.raises(ValueError):
        chol_spd(np.eye(2), -1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_matrix_is_rejected_before_any_factorization(bad, monkeypatch):
    def no_factor(mat):
        raise AssertionError("factorized a non-finite matrix")

    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    with pytest.raises(ValueError, match="non-finite"):
        chol_spd(np.array([[1.0, 0.0], [0.0, bad]]), 1e-6)


def test_chol_solve_matches_direct_solve(rng):
    shape = rng.standard_normal((4, 4))
    mat = shape @ shape.T + 4.0 * np.eye(4)
    b = rng.standard_normal(4)
    _, lower, _ = chol_spd(mat, 0.0)
    assert_allclose(chol_solve(lower, b), np.linalg.solve(mat, b), rtol=1e-10)


def test_is_spd():
    assert is_spd(np.eye(2))
    assert not is_spd(np.diag([1.0, -1.0]))


# -- strict factorization ------------------------------------------------------------

class NotPositiveDefinite(Exception):
    pass


@st.composite
def spectra(draw, min_dim=1, min_log_cond=0.0):
    """A random orthogonal basis and positive eigenvalues with condition up to 1e8."""
    dim = draw(st.integers(min_dim, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    log_cond = draw(st.floats(min_log_cond, 8.0))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    eigs = scale * 10.0 ** (-log_cond * rng.random(dim))
    eigs[0], eigs[-1] = scale, scale * 10.0**-log_cond
    return basis, eigs


def from_spectrum(basis, eigs):
    return (basis * eigs) @ basis.T


@settings(max_examples=100, deadline=None, database=None)
@given(spectrum=spectra())
def test_strict_factor_and_inverse_on_positive_definite_input(spectrum):
    basis, eigs = spectrum
    mat = from_spectrum(basis, eigs)
    lower = spd_factor(mat, NotPositiveDefinite())
    assert np.array_equal(lower, chol_spd(mat, 0.0)[1])
    inv = spd_inverse(mat, NotPositiveDefinite())
    assert np.array_equal(inv, inv.T)
    cond = eigs.max() / eigs.min()
    assert np.abs(inv @ mat - np.eye(eigs.size)).max() <= 1e-13 * eigs.size * cond
    assert is_spd(mat)


@settings(max_examples=100, deadline=None, database=None)
@given(spectrum=spectra(min_dim=2, min_log_cond=0.5), delta=st.floats(1e-10, 1e-3))
def test_strict_helpers_raise_the_given_error_when_barely_indefinite(spectrum, delta):
    basis, eigs = spectrum
    # shift the spectrum so the smallest eigenvalue is -delta * mean diagonal
    # (the mean diagonal is the mean eigenvalue, which the shift also moves)
    dim = eigs.size
    shift = (eigs.min() + delta * eigs.mean()) / (1.0 + delta)
    mat = from_spectrum(basis, eigs - shift)
    assert np.isclose(np.linalg.eigvalsh(mat).min(), -delta * np.trace(mat) / dim, rtol=1e-3)
    with pytest.raises(NotPositiveDefinite):
        spd_factor(mat, NotPositiveDefinite())
    with pytest.raises(NotPositiveDefinite):
        spd_inverse(mat, NotPositiveDefinite())
    assert not is_spd(mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrices_are_not_positive_definite(bad):
    for mat in (np.full((2, 2), bad), np.diag([1.0, bad]), np.array([[1.0, bad], [bad, 1.0]])):
        assert not is_spd(mat)
        with pytest.raises(NotPositiveDefinite):
            spd_factor(mat, NotPositiveDefinite())
        with pytest.raises(NotPositiveDefinite):
            spd_inverse(mat, NotPositiveDefinite())


def test_factorization_decisions_live_in_one_module():
    # Only _linalg calls numpy's Cholesky; the diagonal-loading chol_spd and
    # the LinAlgError it raises are used only by the one Fisher constructor.
    package = Path(kingflow.__file__).parent
    offences = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "_linalg.py":
            continue
        source = path.read_text()
        allowed = set()
        if path.name == "manifold.py":
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.FunctionDef) and node.name == "from_covariance":
                    allowed.update(range(node.lineno, node.end_lineno + 1))
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "np.linalg.cholesky" in line:
                offences.append(f"{path.name}:{lineno}: {line.strip()}")
            if ("chol_spd(" in line or "except np.linalg.LinAlgError" in line) and (
                lineno not in allowed
            ):
                offences.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offences == []
