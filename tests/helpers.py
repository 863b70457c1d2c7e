"""Shared builders for the test suite: named algebras, the random corpus and
monkeypatch probes into the solver."""

import os
import random
import subprocess
import sys
from pathlib import Path

from evoaut import EvolutionAlgebra, autgroup, monomial
from evoaut.scalar import PrimeField, QQ

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)

CORPUS_SEED = 20260810


def ear_algebra(field):
    """5-vertex cycle with an ear (1->2->3->4->1, 1->5->1), weights 1."""
    sq = [[0] * 5 for _ in range(5)]
    sq[0][1] = sq[0][4] = 1
    sq[1][2] = 1
    sq[2][3] = 1
    sq[3][0] = 1
    sq[4][0] = 1
    return EvolutionAlgebra.from_squares(field, sq)


def two_loop_algebra(field):
    """u1^2 = u1 + u2, u2^2 = 2u1 + u2 (swap symmetry does not lift)."""
    return EvolutionAlgebra.from_squares(field, [[1, 1], [2, 1]])


def three_cycle_algebra(field=QQ):
    """u1^2 = u1 + 2u2, u2^2 = -u2 - u3, u3^2 = 2u3 - 8u1."""
    return EvolutionAlgebra.from_squares(field, [[1, 2, 0], [0, -1, -1], [-8, 0, 2]])


def chain_2li_algebra(field, n):
    """u_i^2 = u_i + u_{i+1} truncated with u_n^2 = u_n; satisfies 2LI."""
    squares = []
    for i in range(n):
        col = [0] * n
        col[i] = 1
        if i + 1 < n:
            col[i + 1] = 1
        squares.append(col)
    return EvolutionAlgebra.from_squares(field, squares)


def star_algebra(field, spokes=3):
    """spokes vertices squaring to a common sink w with w^2 = 0."""
    n = spokes + 1
    squares = []
    for i in range(spokes):
        col = [0] * n
        col[n - 1] = 1
        squares.append(col)
    squares.append([0] * n)
    return EvolutionAlgebra.from_squares(field, squares)


def zero_square_algebra(field):
    """e1^2 = e1, e2^2 = 0: second natural-basis orbit exists."""
    return EvolutionAlgebra.from_squares(field, [[1, 0], [0, 0]])


def zero_algebra(field, n):
    return EvolutionAlgebra.from_squares(field, [[0] * n for _ in range(n)])


def random_algebra(rng, field, n, density=0.5):
    p = field.p
    squares = [[rng.randrange(1, p) if rng.random() < density else 0
                for _ in range(n)] for _ in range(n)]
    return EvolutionAlgebra.from_squares(field, squares)


def random_rational_algebra(rng, n, density=0.5):
    from fractions import Fraction

    squares = []
    for _ in range(n):
        col = []
        for _ in range(n):
            if rng.random() < density:
                num = rng.choice([-3, -2, -1, 1, 2, 3, 4])
                den = rng.choice([1, 1, 2, 3])
                col.append(Fraction(num, den))
            else:
                col.append(0)
        squares.append(col)
    return EvolutionAlgebra.from_squares(QQ, squares)


def build_corpus(seed=CORPUS_SEED, f5_count=300, f7_count=200):
    """The deterministic random corpus: F_5 at n <= 4, F_7 at n <= 3."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(f5_count):
        corpus.append(random_algebra(rng, F5, rng.randint(1, 4)))
    for _ in range(f7_count):
        corpus.append(random_algebra(rng, F7, rng.randint(1, 3)))
    return corpus


def square_relations_hold(algebra, sigma, scales) -> bool:
    """Reference lift check, dense: e_i -> x_i e_sigma(i) sends each basis
    square e_i**2 onto (x_i e_sigma(i))**2, compared coordinate by coordinate."""
    n = algebra.dim
    for i in range(n):
        image = [algebra.field.zero] * n
        for j, w in enumerate(algebra.square_of(i)):
            image[sigma[j]] = w * scales[j]
        x2 = scales[i] * scales[i]
        if image != [x2 * w for w in algebra.square_of(sigma[i])]:
            return False
    return True


def count_snf_calls(monkeypatch) -> list:
    """Record the row count of every Smith normal form the solver runs."""
    calls = []
    real = monomial.smith_normal_form

    def counting(matrix):
        calls.append(len(matrix))
        return real(matrix)

    monkeypatch.setattr(monomial, "smith_normal_form", counting)
    return calls


def drop_lift(monkeypatch, dropped):
    """Make the canonical solution of one sigma's twisted right-hand sides
    report infeasible."""
    marked = []
    real_rhs = autgroup._twisted_rhs
    real_particular = monomial.ExponentDecomposition.particular

    def twisted_rhs(algebra, sigma):
        rhs = real_rhs(algebra, sigma)
        if tuple(sigma) == dropped:
            marked.append(rhs)
        return rhs

    def particular(self, rhs):
        if any(rhs is m for m in marked):
            return None
        return real_particular(self, rhs)

    monkeypatch.setattr(autgroup, "_twisted_rhs", twisted_rhs)
    monkeypatch.setattr(monomial.ExponentDecomposition, "particular", particular)


def run_python(args, timeout, cwd=None):
    """A fresh interpreter with this checkout's src on its path, killed after ``timeout`` s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable] + args, env=env, capture_output=True, text=True,
                          timeout=timeout, cwd=cwd)
