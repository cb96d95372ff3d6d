import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pairid
from pairid.primes import _jacobi, _strong_fermat_base2, _strong_lucas, factor, is_prime

from oracles import factor_naive, is_prime_naive, jacobi_reference
from test_tate import REAL_P, REAL_Q

# Composites that pass one half of the Baillie-PSW test.
STRONG_BASE2_PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321, 3215031751, 3825123056546413051)
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971)


def test_is_prime_matches_trial_division():
    for n in range(20_000):
        assert is_prime(n) == is_prime_naive(n), n


def test_factor_matches_trial_division():
    for n in range(2, 10_002):
        assert factor(n) == factor_naive(n), n


def test_jacobi_matches_the_reference():
    # Every odd n < 2000 and every a in [-n, 2n]; the reference reduces a
    # mod n first, so one row of it per n serves all three periods.
    for n in range(1, 2000, 2):
        row = [jacobi_reference(a, n) for a in range(n)]
        for a in range(-n, 2 * n + 1):
            assert _jacobi(a, n) == row[a % n], (a, n)


def test_jacobi_is_euler_criterion_at_real_size():
    rng = random.Random("jacobi 512")
    for a in [rng.randrange(1, REAL_Q) for _ in range(1000)]:
        euler = pow(a, (REAL_Q - 1) // 2, REAL_Q)
        assert _jacobi(a, REAL_Q) == (1 if euler == 1 else -1), a


@pytest.mark.parametrize("n", STRONG_BASE2_PSEUDOPRIMES)
def test_strong_base2_pseudoprimes_rejected(n):
    assert _strong_fermat_base2(n)
    assert not _strong_lucas(n)
    assert not is_prime(n)


@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
def test_strong_lucas_pseudoprimes_rejected(n):
    assert _strong_lucas(n)
    assert not _strong_fermat_base2(n)
    assert not is_prime(n)


def test_real_size_parameters():
    assert is_prime(REAL_P) and is_prime(REAL_Q)
    assert not is_prime(REAL_P * REAL_Q)
    assert not is_prime(REAL_Q + 1)
    assert not is_prime(REAL_P * REAL_P)  # a square: no Lucas parameter exists


def test_cli_import_leaves_sympy_out():
    src = str(Path(pairid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, pairid.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
