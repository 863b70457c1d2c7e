"""Multiplicative ("monomial") constraint systems over K^x.

A system is a set of relations prod_v x_v**a[v] == c over the multiplicative
group of the field.  Smith normal form of the integer exponent matrix turns
the system into independent power equations y_k**d_k == c'_k in transformed
coordinates: the solution group of the homogeneous system is
(K^x)^(n - rank) x prod mu_{d_i}(K) over the nontrivial invariant factors d_i,
and an inhomogeneous system is either infeasible or a coset of that group.
Systems that differ only in their right-hand sides share one
``ExponentDecomposition``: one per algebra serves all of its systems.  Its
``particular`` is the bare solution, for a caller that checks it;
``solve_inhomogeneous`` wraps it in a ``SolutionCoset``, which checks it
against every row of the system in raw values.

Over F_p everything runs in integers; scalars are built only where a public
function returns them.  F_p^x is cyclic of order m = p - 1, so in discrete
logs to the field generator g every relation is a linear congruence mod m:
``particular`` takes residue right-hand sides, looks up their logs (each
taken once per decomposition; an all-ones system, solved by all ones,
needs neither logs nor U), transforms them by U, solves d*y == c' (mod m)
and maps back through V.  It is the one place here that takes a discrete log.
Homogeneous generators are log vectors l with base g mod p - 1 (base -1
mod 2 for the sign part over Q), each checked against every row as
sum_v a[v]*l[v] == 0 (mod m), which is the scalar check itself as the base
has order exactly m.  ``GroupDescription.coset`` lists every finite group
and coset, here, in the oracle and in the monomial automorphisms; it and the
brute-force scan give sorted tuples of residues until ``elements`` or
``enumerate_solutions_bruteforce`` wraps them.  Over Q ``particular`` works
in Fractions and takes exact n-th roots; free factors stay symbolic, and only
the finite sign part is listed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import index, mul

from .errors import InvariantViolation, NotPrimeField, TooLarge, ZeroArgument
from .scalar import Field, PrimeField, Scalar, dlog, mu_order, nth_roots, root_logs
from .snf import SmithDecomposition, _Rows, smith_normal_form
from .value import Value

ENUMERATION_CAP = 10**6
BRUTEFORCE_CAP = 10**7


class MonomialSystem(Value):
    """Rows (a, c) encode the relations prod_v x_v**a[v] == c, c in K^x.

    Each exponent row a is held by its nonzeros, as (v, a[v]) pairs in v
    order.  The constructor takes a row as such pairs (an empty row is the
    zero row) or dense, as n_vars integers, and raises ValueError for
    anything else."""

    __slots__ = ("field", "n_vars", "rows")

    def __init__(self, field: Field, n_vars: int,
                 rows: tuple[tuple[tuple[tuple[int, int], ...], Scalar], ...]):
        if n_vars < 0:
            raise ValueError("variable count must be nonnegative")
        frozen = []
        for exps, rhs in rows:
            exps, rhs = _exponent_pairs(exps, n_vars), field.scalar(rhs)
            if rhs.is_zero():
                raise ZeroArgument("monomial relations cannot have zero right-hand side")
            frozen.append((exps, rhs))
        self.field, self.n_vars, self.rows = field, n_vars, tuple(frozen)

    @classmethod
    def _of_normal_rows(cls, field: Field, n_vars: int, rows) -> MonomialSystem:
        """The system of ``rows`` as the constructor would hold them, taken
        unread: each exponent row as (v, e) pairs with e a nonzero int, in
        increasing v within range(n_vars), and each right-hand side a
        nonzero scalar of ``field``.  For a caller that builds its rows so."""
        system = cls.__new__(cls)
        system.field, system.n_vars, system.rows = field, n_vars, tuple(rows)
        return system


def _exponent_pairs(exps, n_vars: int) -> tuple[tuple[int, int], ...]:
    """An exponent row, as (v, e) pairs in increasing v order or dense, as
    its nonzero (v, e) pairs in v order.  Pairs out of order or outside
    range(n_vars), a dense row of another length and a non-integer raise
    ValueError."""
    try:
        if not exps or type(exps[0]) is tuple:
            last, pairs = -1, []
            for v, e in exps:
                v, e = index(v), index(e)
                if not last < v < n_vars:
                    raise ValueError(f"exponent row {exps} does not list variables of "
                                     f"range({n_vars}) in increasing order")
                last = v
                if e:
                    pairs.append((v, e))
            return tuple(pairs)
        dense = tuple(map(index, exps))
    except TypeError:
        raise ValueError(f"exponent row {exps!r} holds a non-integer") from None
    if len(dense) != n_vars:
        raise ValueError(f"exponent row {dense} does not have {n_vars} entries")
    return tuple((v, e) for v, e in enumerate(dense) if e)


class GroupDescription(Value):
    """Abstract shape (K^x)^r x prod mu_{d_i}(K), optionally materialized.

    ``torsion`` holds the nontrivial invariant factors in divisibility order.
    Over F_p, ``generators`` are solution vectors of length ``n_vars``
    generating the whole group (orders in ``generator_orders``); over Q only
    the finite sign part gets generators and free factors are reported
    symbolically.  ``symbol`` overrides the shape for table-backed answers
    such as Z_2.
    """

    __slots__ = ("free_rank", "torsion", "field", "generators", "generator_orders", "symbol",
                 "n_vars")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = (), field: Field | None = None,
                 generators: tuple[tuple[Scalar, ...], ...] = (),
                 generator_orders: tuple[int, ...] = (), symbol: str | None = None,
                 n_vars: int = 0):
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for k in range(len(torsion)):
            if torsion[k] < 2:
                raise InvariantViolation(f"torsion entry {torsion[k]} < 2")
            if k and torsion[k] % torsion[k - 1]:
                raise InvariantViolation(f"torsion {torsion} breaks the divisibility chain")
        if len(generators) != len(generator_orders):
            raise InvariantViolation("generators and orders must be parallel")
        self.free_rank, self.torsion, self.field, self.n_vars = free_rank, torsion, field, n_vars
        self.generators, self.generator_orders, self.symbol = generators, generator_orders, symbol

    def describe(self) -> str:
        if self.symbol is not None:
            return self.symbol
        parts = []
        if self.free_rank:
            parts.append(f"(K^x)^{self.free_rank}")
        for d, copies in itertools.groupby(self.torsion):
            count = len(list(copies))
            parts.append(f"mu_{d}(K)" + (f"^{count}" if count > 1 else ""))
        return " x ".join(parts) if parts else "1"

    __str__ = describe

    def concrete_order(self):
        """Group order over the attached field; None when infinite/symbolic."""
        finite = isinstance(self.field, PrimeField)
        if self.symbol is not None or self.field is None or (self.free_rank and not finite):
            return None
        order = (self.field.p - 1) ** self.free_rank if finite else 1
        for d in self.torsion:
            order *= mu_order(self.field, d)
        return order

    def elements(self) -> list[tuple[Scalar, ...]]:
        """The concrete solution group, sorted; requires a finite materialization."""
        return [tuple(map(self.field.scalar, vec)) for vec in self.coset(None)]

    def coset(self, shift) -> list[tuple]:
        """shift * g for every g in the group (g itself when the scalar vector
        ``shift`` is None), sorted, as tuples of residues over F_p and of Fractions
        over Q: shift * prod g_k**a_k, once for each a with 0 <= a_k < o_k, the
        order of the k-th generator.  Each g_k**o_k must bring shift back, and
        the listing must hold exactly ``order`` distinct vectors."""
        order = self.concrete_order()
        if order is None:
            raise TooLarge(f"monomial: cannot list an infinite or symbolic group ({self})")
        if order > ENUMERATION_CAP:
            raise TooLarge(f"monomial: group order exceeds the listing cap {ENUMERATION_CAP} "
                           f"(order {order})")
        if (listed := math.prod(self.generator_orders)) != order:
            raise InvariantViolation(f"would list {listed} elements, expected order {order}")
        raw, p = self.field.raw, self.field.characteristic
        times = (lambda x, y: x * y % p) if p else mul
        out = [tuple(map(raw, shift or (self.field.one,) * self.n_vars))]
        for gen, gen_order in zip(self.generators, self.generator_orders):
            gen, power = tuple(map(raw, gen)), out
            for _ in range(gen_order - 1):   # out times g**1, ..., g**(gen_order - 1)
                power = [tuple(map(times, vec, gen)) for vec in power]
                out.extend(power)
            if tuple(map(times, power[0], gen)) != out[0]:
                raise InvariantViolation(f"generator {gen} does not have order {gen_order}")
        if len(distinct := set(out)) != order:
            raise InvariantViolation(f"generated {len(distinct)} elements, expected order {order}")
        return sorted(distinct)


class SolutionCoset(Value):
    """Solutions of an inhomogeneous system: particular * homogeneous group.

    ``particular`` is None exactly when the system is infeasible; the
    homogeneous description is meaningful either way.  ``__init__`` checks
    ``particular`` against every relation in raw values, prod x_v**e as
    ``pow(x, e, p)`` over F_p and as a Fraction power over Q, so each
    ``solve_inhomogeneous`` is certified.
    """

    __slots__ = ("system", "particular", "homogeneous")

    def __init__(self, system: MonomialSystem, particular: tuple[Scalar, ...] | None,
                 homogeneous: GroupDescription):
        if particular is not None:
            if len(particular) != system.n_vars:
                raise InvariantViolation("particular solution has the wrong length")
            if any(x.is_zero() for x in particular):
                raise InvariantViolation("particular solution must lie in (K^x)^n")
            field = system.field
            raw, p = field.raw, field.characteristic
            xs = [raw(field.scalar(x)) for x in particular]   # FieldMismatch for another field
            for exps, rhs in system.rows:
                value = 1
                for v, e in exps:
                    value = value * pow(xs[v], e, p) % p if p else value * xs[v] ** e
                if value != raw(rhs):
                    raise InvariantViolation("particular solution fails the system")
        self.system, self.particular, self.homogeneous = system, particular, homogeneous

    @property
    def is_feasible(self) -> bool:
        return self.particular is not None

    def count(self):
        """Number of solutions; 0 when infeasible, None when infinite."""
        if not self.is_feasible:
            return 0
        return self.homogeneous.concrete_order()

    def elements(self) -> list[tuple[Scalar, ...]]:
        """The particular solution times each homogeneous element, sorted."""
        if not self.is_feasible:
            return []
        vectors = self.homogeneous.coset(self.particular)
        return [tuple(map(self.system.field.scalar, vec)) for vec in vectors]


def _generator_logs(decomposition: ExponentDecomposition, free: bool):
    """Log vectors (with orders) generating the homogeneous solution group.

    In transformed coordinates the group is the direct product of mu_{d_k}
    for k < rank and, when ``free``, full copies of the cyclic group of order
    ``modulus`` beyond.  mu_{d_k} is generated by the log modulus / o with
    o = gcd(d_k, modulus); V pushes it to the log vector a * (column k of V)
    mod modulus, and keeps the product structure because it acts as a group
    automorphism of (Z/modulus)^n.  Factors of order 1 get no generator, so
    a trivial group never reads V.
    """
    modulus, rank, diag, n = (decomposition.modulus, decomposition.rank,
                              decomposition.diagonal, decomposition.n_vars)
    generators = []
    orders = []
    for k in range(n if free else rank):
        o = math.gcd(diag[k], modulus) if k < rank else modulus
        if o > 1:
            a = modulus // o
            gen = [0] * n
            for i, x in decomposition.V[k]:
                gen[i] = a * x % modulus
            generators.append(tuple(gen))
            orders.append(o)
    return generators, orders


class ExponentDecomposition:
    """One Smith normal form of a system's exponent rows: the diagonal and
    the homogeneous solution group, whose generators are checked against the
    rows once, here.  The system's rows are already in the SNF's sparse
    form, so they go to ``smith_normal_form`` as a matrix read at width
    n_vars, which neither the SNF nor its certificate reads again.  U's
    sparse rows and V's sparse columns are each replayed from their log
    once, on first use: U when ``particular`` first reads it for right-hand
    sides other than all ones, V when a generator or ``particular`` does.
    So a caller that only needs a trivial group builds neither, and one that
    only needs the group or the identity lift never builds U.  Every system
    with the same rows and any right-hand sides (an algebra's diagonal and
    twisted systems) is solved against it, by ``particular``.  The
    generators' scalars are built once per distinct log.

    ``modulus`` is the order of the cyclic group the log coordinates live in:
    p - 1 over F_p (base: the field generator), 2 over Q (base: -1, the sign).
    """

    def __init__(self, system: MonomialSystem):
        field, n = system.field, system.n_vars
        self.field, self.n_vars = field, n
        # MonomialSystem holds each row as _sparse_rows would give it
        self.exponents = _Rows((exps for exps, _ in system.rows), n)
        # no relations: the empty 0 x n decomposition, whose V is the identity
        snf = self._snf = smith_normal_form(self.exponents, n) if self.exponents \
            else SmithDecomposition((), n, (), (), ())
        self.rank, self.diagonal = snf.rank, snf.diagonal
        self._u = self._v = None
        finite = isinstance(field, PrimeField)
        self.modulus = field.p - 1 if finite else 2
        base = field.scalar(field.generator) if finite else -field.one
        logs, orders = _generator_logs(self, finite)
        if any(sum(e * gen[v] for v, e in row) % self.modulus
               for gen in logs for row in self.exponents):
            raise InvariantViolation("homogeneous generator fails the system")
        powers = {x: base**x for x in set().union(*logs)}
        self.homogeneous = GroupDescription(
            free_rank=n - self.rank, torsion=tuple(d for d in self.diagonal[:self.rank] if d > 1),
            field=field, generators=tuple(tuple(map(powers.__getitem__, gen)) for gen in logs),
            generator_orders=tuple(orders), n_vars=n)
        self._roots: dict[tuple[int, int], int | None] = {}
        self._powers: dict[int, Scalar] = {}
        self._logs: dict[int, int] = {1: 0}   # residue -> its discrete log, over F_p

    @property
    def U(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """U by sparse rows, replayed from the SNF's log on first use and kept
        in ``_u``, an attribute set in ``__init__``: ``cached_property`` would
        write through ``__dict__``, which slows every later attribute read."""
        if self._u is None:
            self._u = self._snf.U
        return self._u

    @property
    def V(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """V by sparse columns, replayed from the SNF's log on first use and
        kept in ``_v``, as U is in ``_u``."""
        if self._v is None:
            self._v = self._snf.V
        return self._v

    def particular(self, rhs) -> tuple[Scalar, ...] | None:
        """The canonical solution for right-hand sides ``rhs`` (one per exponent
        row, in row order, as raw values: residues over F_p, Fractions over
        Q), or None when there is none.  Unchecked: ``solve_inhomogeneous``
        certifies it through ``SolutionCoset``, and ``assemble_aut`` through
        the lift it builds.

        The right-hand sides are transformed by U; the system is solvable iff
        every zero row yields 1 and every diagonal equation y**d == c' has a
        d-th root in the field.  The canonical particular solution takes, per
        diagonal equation, the root 1 when available and the canonically
        smallest root otherwise, then maps back through V.  Over F_p all of
        this is integer arithmetic mod p - 1 on the residues' discrete logs,
        each taken once per decomposition, and the root chosen for each
        (d, c') is kept for the next call.  When every right-hand side is 1,
        so is every c', and the answer is all ones without U.
        """
        if all(c == 1 for c in rhs):
            return (self.field.one,) * self.n_vars
        if not isinstance(self.field, PrimeField):
            return self._particular_rational(rhs)
        m, roots, logs = self.modulus, self._roots, self._logs
        for r in set(rhs).difference(logs):
            logs[r] = dlog(self.field, r)
        xs = [0] * self.n_vars
        for k, u_row in enumerate(self._u or self.U):   # no property call per solve once built
            c = 0
            for j, e in u_row:
                c += e * logs[rhs[j]]
            c %= m
            if not c:
                continue   # the root 1, log 0, adds nothing below
            if k >= self.rank:
                return None
            key = (self.diagonal[k], c)
            if key not in roots:   # c' != 1, so the canonical root is the smallest
                roots[key] = min(root_logs(self.field, *key), default=None,
                                 key=lambda y: pow(self.field.generator, y, self.field.p))
            y = roots[key]
            if y is None:
                return None
            for i, e in (self._v or self.V)[k]:
                xs[i] += e * y
        return tuple(self._power(x % m) for x in xs)

    def _power(self, log: int) -> Scalar:
        """g**log over F_p, one shared immutable scalar per log."""
        x = self._powers.get(log)
        if x is None:
            x = self._powers[log] = self.field.scalar(pow(self.field.generator, log, self.field.p))
        return x

    def _particular_rational(self, rhs) -> tuple[Scalar, ...] | None:
        """``particular`` over Q, in Fractions: scalars only for the answer."""
        one = Fraction(1)
        ys = [one] * self.n_vars
        for k, u_row in enumerate(self.U):
            c = one
            for j, e in u_row:
                c *= rhs[j] ** e
            if k < self.rank:
                roots = [r.fraction for r in nth_roots(self.field, self.diagonal[k], c)]
                if not roots:
                    return None
                ys[k] = one if one in roots else roots[0]
            elif c != one:
                return None
        xs = [one] * self.n_vars
        for y, column in zip(ys, self.V):
            for i, e in column:
                xs[i] *= y**e
        return tuple(map(self.field.scalar, xs))


def solve_homogeneous(system: MonomialSystem) -> GroupDescription:
    """Structure of {x in (K^x)^n : prod x**a == 1 for every row}.

    The solution group is Hom(Z^n / row lattice, K^x); its shape is read off
    the Smith normal form as free rank n - rank plus one mu_{d}(K) factor per
    nontrivial invariant factor d.  Right-hand sides are not read.
    """
    return ExponentDecomposition(system).homogeneous


def solve_inhomogeneous(system: MonomialSystem) -> SolutionCoset:
    """Full solution coset of a monomial system (Infeasible is a value): the
    canonical ``particular`` solution for the system's raw right-hand sides,
    certified by ``SolutionCoset`` against every relation."""
    decomposition = ExponentDecomposition(system)
    particular = decomposition.particular([system.field.raw(c) for _, c in system.rows])
    return SolutionCoset(system, particular, decomposition.homogeneous)


def check_scan_cap(p: int, n_vars: int) -> None:
    """TooLarge when the scan of (F_p^x)^n passes ``BRUTEFORCE_CAP`` points."""
    if (p - 1) ** n_vars > BRUTEFORCE_CAP:
        raise TooLarge(f"monomial: brute-force scan exceeds the cap {BRUTEFORCE_CAP} "
                       f"((p-1)^n = {p - 1}^{n_vars} = {(p - 1) ** n_vars})")


def bruteforce_solution_sets(p: int, n_vars: int, exponents, rights) -> list[list[tuple]]:
    """Oracle: the solutions in (F_p^x)^n, as sorted lists of residue tuples,
    of the systems with the exponent rows ``exponents`` (as ``MonomialSystem``
    holds them: (v, e) pairs) and each right-hand side in ``rights``
    (residues, one per row; a generator will do).

    One exhaustive scan serves all of them, as it does an algebra's diagonal
    and twisted systems.  Each point is read once, by its vector of row
    values: a trie over the right-hand sides drops it as soon as no system
    matches, and otherwise leads to the one list shared by every system with
    those right-hand sides.  So ``BRUTEFORCE_CAP`` bounds the whole scan.
    Only the rows and residues mod p are read, never a Smith normal form:
    the oracle stays independent of the path it checks.
    """
    check_scan_cap(p, n_vars)
    keys = [tuple(rhs) for rhs in rights]
    # x**e depends on e mod p - 1 only, as x is a unit
    rows = [[(v, e % (p - 1)) for v, e in exps if e % (p - 1)] for exps in exponents]
    trie = {} if rows else []   # row values -> ... -> the list of points
    hits = {}
    for key in keys:
        if key not in hits:
            node = trie
            for value in key[:-1]:
                node = node.setdefault(value, {})
            hits[key] = node.setdefault(key[-1], []) if key else trie
    for point in itertools.product(range(1, p), repeat=n_vars):
        node = trie
        for factors in rows:
            value = 1
            for v, e in factors:
                value = value * pow(point[v], e, p) % p
            node = node.get(value)
            if node is None:
                break
        else:
            node.append(point)
    return [hits[key] for key in keys]


def enumerate_solutions_bruteforce(system: MonomialSystem) -> list[tuple[Scalar, ...]]:
    """Oracle: exhaustive scan of (F_p^x)^n for solutions, sorted; the
    one-system case of ``bruteforce_solution_sets``, in scalars."""
    field = system.field
    if not isinstance(field, PrimeField):
        raise NotPrimeField("brute-force enumeration needs a finite field")
    exponents, rhs = [e for e, _ in system.rows], tuple(c.residue for _, c in system.rows)
    points = bruteforce_solution_sets(field.p, system.n_vars, exponents, [rhs])[0]
    return [tuple(map(field.scalar, point)) for point in points]
