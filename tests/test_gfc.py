import itertools
import math

import mpmath
import numpy as np
import pytest

from vecfdp.abundance import ants_table
from vecfdp.estimation import fit_all
from vecfdp.gfc import build_central_table, log_noncentral_row, log_noncentral_rows
from vecfdp.logmath import LOG_ZERO, DomainError, log_pochhammer

from oracles import central_table_by_rows, log_noncentral_gfc


def composition_sum_oracle(n: int, k: int, gamma: float) -> float:
    """|C(n, k; -gamma)| as 1/k! sum over compositions of n into k positive
    parts of the multinomial coefficient times prod (gamma)_part."""
    total = 0.0
    for parts in itertools.product(range(1, n - k + 2), repeat=k):
        if sum(parts) != n:
            continue
        coeff = math.factorial(n)
        for p in parts:
            coeff //= math.factorial(p)
        value = float(coeff)
        for p in parts:
            for i in range(p):
                value *= gamma + i
        total += value
    return total / math.factorial(k)


@pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5])
def test_central_matches_composition_oracle(gamma):
    table = build_central_table(gamma, 8)
    for n in range(1, 9):
        for k in range(1, n + 1):
            expected = composition_sum_oracle(n, k, gamma)
            assert math.exp(table[n, k]) == pytest.approx(
                expected, rel=1e-10), (n, k, gamma)


def test_boundary_conditions():
    table = build_central_table(1.7, 6)
    assert table[0, 0] == 0.0
    for n in range(1, 7):
        assert table[n, 0] == LOG_ZERO
        assert table[3, 5] == LOG_ZERO


@pytest.mark.parametrize("gamma", [0.4, 1.0, 3.2])
def test_first_and_last_columns(gamma):
    table = build_central_table(gamma, 10)
    for n in range(1, 11):
        assert table[n, 1] == pytest.approx(
            log_pochhammer(gamma, n), rel=1e-12)
        assert table[n, n] == pytest.approx(
            n * math.log(gamma), rel=1e-12)


def test_simple_values():
    assert build_central_table(1.0, 2)[1, 1] == pytest.approx(0.0, abs=1e-14)
    # (1)_2 = 2
    assert math.exp(build_central_table(1.0, 2)[2, 1]) == pytest.approx(2.0)
    assert math.exp(build_central_table(0.5, 3)[3, 2]) == pytest.approx(
        composition_sum_oracle(3, 2, 0.5), rel=1e-12)


@pytest.mark.parametrize("gamma", [0.05, 0.4, 1.0, 1.7, 6.3])
@pytest.mark.parametrize("max_n", [0, 1, 2, 7, 64, 200])
def test_central_table_is_row_by_row_table(gamma, max_n):
    # one column pass of row max_n fills every row exactly as its own row
    np.testing.assert_array_equal(build_central_table(gamma, max_n),
                                  central_table_by_rows(gamma, max_n))


def test_build_domain_errors():
    with pytest.raises(DomainError):
        build_central_table(0.0, 4)
    with pytest.raises(DomainError):
        build_central_table(-1.0, 4)
    with pytest.raises(DomainError):
        build_central_table(1.0, -1)


def test_one_step_noncentral_values():
    # |C(1, 0; -g, -rho)| = rho and |C(1, 1; -g, -rho)| = g, exactly
    gamma, rho = 0.7, 2.9
    assert math.exp(log_noncentral_gfc(1, 0, gamma, rho)) == pytest.approx(
        rho, rel=1e-14)
    assert math.exp(log_noncentral_gfc(1, 1, gamma, rho)) == pytest.approx(
        gamma, rel=1e-14)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_noncentral_zero_shift_equals_central(gamma):
    table = build_central_table(gamma, 20)
    for n in range(0, 21):
        for k in range(0, n + 1):
            assert log_noncentral_gfc(n, k, gamma, 0.0) == pytest.approx(
                table[n, k], abs=1e-12)


def test_noncentral_convolution_oracle():
    # direct evaluation of the binomial convolution in plain floats
    gamma, rho = 1.3, 4.2
    table = build_central_table(gamma, 6)
    for m in range(0, 7):
        for k in range(0, m + 1):
            total = 0.0
            for j in range(k, m + 1):
                poch = 1.0
                for i in range(m - j):
                    poch *= rho + i
                total += math.comb(m, j) * poch * math.exp(
                    table[j, k])
            got = math.exp(log_noncentral_gfc(m, k, gamma, rho))
            assert got == pytest.approx(total, rel=1e-12)


def test_noncentral_row_matches_scalar():
    gamma, rho = 0.9, 3.3
    row = log_noncentral_row(7, gamma, rho)
    for k in range(0, 8):
        assert row[k] == pytest.approx(
            log_noncentral_gfc(7, k, gamma, rho), abs=1e-12)


def mp_noncentral_row(m: int, gamma: float, rho: float,
                      kmax: int | None = None) -> list[float]:
    """log |C(m, k; -gamma, -rho)|, k = 0..min(m, kmax), by the all-positive
    recurrence in 50-digit arithmetic, row by row; entries past kmax are
    never formed, since no column reads a later one."""
    top = m if kmax is None else min(m, kmax)
    with mpmath.workdps(50):
        g, r = mpmath.mpf(gamma), mpmath.mpf(rho)
        row = [mpmath.mpf(1)]
        for n in range(m):
            row = [(g * row[k - 1] if k > 0 else 0)
                   + ((g * k + r + n) * row[k] if k <= n else 0)
                   for k in range(min(n + 1, top) + 1)]
        return [float(mpmath.log(c)) for c in row]


def test_noncentral_row_against_mpmath_recurrence():
    # both groups of the ants table at the fitted concentrations, where
    # rho_j = gamma_j r_j + n_j is in the hundreds to thousands
    table = ants_table()
    params = fit_all(table).params
    for gamma, r_j, n_j in ((params.gamma1, table.r1, table.n1),
                            (params.gamma2, table.r2, table.n2)):
        rho = gamma * r_j + n_j
        row = log_noncentral_row(400, gamma, rho)
        np.testing.assert_allclose(row, mp_noncentral_row(400, gamma, rho),
                                   rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("kmax", [14, 40])
def test_truncated_row_against_mpmath_recurrence(kmax):
    # a future of 2000 on both ants groups, cut where the coverage of the
    # fitted model stops reading (14) and further out (40)
    table = ants_table()
    params = fit_all(table).params
    for gamma, r_j, n_j in ((params.gamma1, table.r1, table.n1),
                            (params.gamma2, table.r2, table.n2)):
        rho = gamma * r_j + n_j
        row = log_noncentral_row(2000, gamma, rho, kmax=kmax)
        assert row.size == kmax + 1
        np.testing.assert_allclose(row, mp_noncentral_row(2000, gamma, rho, kmax),
                                   rtol=0.0, atol=1e-10)


def test_noncentral_domain():
    with pytest.raises(DomainError):
        log_noncentral_gfc(3, 4, 1.0, 1.0)
    with pytest.raises(DomainError):
        log_noncentral_gfc(3, 1, 1.0, -0.5)
    with pytest.raises(DomainError):
        log_noncentral_row(3, 1.0, -0.5)
    with pytest.raises(DomainError):
        log_noncentral_row(3, 0.0, 1.0)
    with pytest.raises(DomainError):
        log_noncentral_row(-1, 1.0, 1.0)
    with pytest.raises(DomainError):
        log_noncentral_row(3, 1.0, 1.0, kmax=-1)


@pytest.mark.parametrize("gamma,rho", [(0.7, 0.0), (1.4, 13.3), (0.69, 1567.8)])
@pytest.mark.parametrize("kmax", [0, 3, 9, 60, 500])
def test_many_m_pass_rows_equal_row_per_m(gamma, rho, kmax):
    # one pass to the largest m keeps every row bit for bit, whether kmax is
    # below every m, between them or past them all; -inf past min(m, kmax)
    ms = [0, 1, 4, 9, 10, 37, 200]
    rows = log_noncentral_rows(ms, gamma, rho, kmax)
    assert rows.shape == (len(ms), min(ms[-1], kmax) + 1)
    for m, row in zip(ms, rows):
        alone = log_noncentral_row(m, gamma, rho, kmax)
        assert np.array_equal(row[:alone.size].view(np.int64), alone.view(np.int64)), m
        assert (row[alone.size:] == LOG_ZERO).all()


def test_many_m_pass_domain():
    with pytest.raises(DomainError):
        log_noncentral_rows([], 1.0, 1.0, 3)
    with pytest.raises(DomainError):
        log_noncentral_rows([-1, 2], 1.0, 1.0, 3)
    with pytest.raises(DomainError):
        log_noncentral_rows([1, 2], 1.0, 1.0, -1)
