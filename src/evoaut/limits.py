"""Truncated inverse systems over K^x: power-map chains and the 2-power tower.

A depth-N chain spec fixes exponents (n_1, ..., n_N); its solutions are
tuples (x_1, ..., x_N) in (K^x)^N with x_{i+1}**n_{i+1} == x_i, optionally
anchored by x_1**n_1 == a.  The maps point down the chain, so enumerating the
deepest coordinate determines the rest.

The 2-power tower mu_2 <= mu_4 <= ... in F_p^x or Q^x is stationary; the
stationary index (v_2(p-1) over F_p, 1 over Q) forces every coordinate with
at least that much headroom above it to be 1, which is why the inverse limit
of the tower is trivial for these fields.  Fields where the tower never
stops (algebraically closed of odd characteristic, or the full 2-power
cyclotomic extension of Q) are handled symbolically with the answer Z_2.
"""

from __future__ import annotations

from .algebra import EvolutionAlgebra
from .autgroup import diag_group
from .errors import DepthTooSmall, EvoautError, NotPrimeField, TooLarge
from .monomial import GroupDescription
from .scalar import Field, PrimeField, RationalField, Scalar
from .value import Value

CHAIN_BUDGET = 10**6

SYMBOLIC_TATE_FIELDS = {
    "acl-not2": "algebraically closed, characteristic != 2",
    "Q-zeta2inf": "rationals with all 2-power roots of unity adjoined",
}


def two_adic_valuation(m: int) -> int:
    v = 0
    while m % 2 == 0 and m > 0:
        m //= 2
        v += 1
    return v


class ChainSpec(Value):
    """Exponent sequence of a truncated power-map chain, with optional anchor."""

    __slots__ = ("field", "exponents", "anchor")

    def __init__(self, field: Field, exponents: tuple[int, ...], anchor: Scalar | None = None):
        exponents = tuple(int(e) for e in exponents)
        if not exponents or any(e < 1 for e in exponents):
            raise ValueError("exponents must be a nonempty sequence of positive integers")
        if anchor is not None:
            anchor = field.scalar(anchor)
            if anchor.is_zero():
                raise EvoautError("anchor must be a unit")
        self.field, self.exponents, self.anchor = field, exponents, anchor

    @property
    def depth(self) -> int:
        return len(self.exponents)


class TruncatedLimit(Value):
    """All compatible tuples at a fixed depth, plus the stabilization depth.

    ``stabilization_depth`` is the smallest 1-based index s such that the
    projection sets {x_i : tuples} agree for every i >= s within the computed
    window; depth itself when the sets never settle earlier.
    """

    __slots__ = ("spec", "tuples", "stabilization_depth")

    def __init__(self, spec: ChainSpec, tuples: tuple[tuple[Scalar, ...], ...],
                 stabilization_depth: int):
        exps = spec.exponents
        for chain in tuples:
            if len(chain) != spec.depth:
                raise EvoautError("tuple depth mismatch")
            for i in range(len(chain) - 1):
                if chain[i + 1] ** exps[i + 1] != chain[i]:
                    raise EvoautError(f"chain {chain} breaks compatibility at index {i}")
            if spec.anchor is not None and chain[0] ** exps[0] != spec.anchor:
                raise EvoautError(f"chain {chain} violates the anchor condition")
        self.spec, self.tuples, self.stabilization_depth = spec, tuples, stabilization_depth

    @property
    def depth(self) -> int:
        return self.spec.depth


def check_chain_budget(field: Field, depth: int) -> None:
    """Refuse a census over a non-prime field or past ``CHAIN_BUDGET``, before
    any chain is built."""
    if not isinstance(field, PrimeField):
        raise NotPrimeField("chain enumeration requires a prime field")
    if (field.p - 1) * depth > CHAIN_BUDGET:
        raise TooLarge(f"limits: chain census exceeds the budget {CHAIN_BUDGET} "
                       f"((p-1)*depth = {field.p - 1}*{depth} = {(field.p - 1) * depth})")


def truncated_chain(spec: ChainSpec) -> TruncatedLimit:
    """Enumerate all compatible depth-N tuples over a prime field.

    The deepest coordinate is free a priori; everything below it is derived
    by the power maps, then the anchor filters the candidates.  The census
    runs on residues; each tuple entry is the field's one scalar for it.
    """
    field, n = spec.field, spec.depth
    check_chain_budget(field, n)
    p, exps = field.p, spec.exponents
    anchor = None if spec.anchor is None else spec.anchor.residue
    chains = []
    for deep in range(1, p):
        chain = [deep] * n
        for i in range(n - 2, -1, -1):
            chain[i] = pow(chain[i + 1], exps[i + 1], p)
        if anchor is None or pow(chain[0], exps[0], p) == anchor:
            chains.append(chain)
    chains.sort()

    # the projections {x_i : chains}, compared from the top two at a time
    stab, upper = n, {chain[-1] for chain in chains}
    while stab > 1 and (lower := {chain[stab - 2] for chain in chains}) == upper:
        stab, upper = stab - 1, lower
    units = field.nonzero_elements()   # one shared scalar per residue; r is units[r - 1]
    tuples = tuple(tuple(units[r - 1] for r in chain) for chain in chains)
    return TruncatedLimit(spec=spec, tuples=tuples, stabilization_depth=stab)


def tate_stationary_index(field) -> int | None:
    """Index from which the tower mu_2 <= mu_4 <= ... stops growing."""
    if isinstance(field, PrimeField):
        return two_adic_valuation(field.p - 1) if field.p > 2 else 0
    if isinstance(field, RationalField):
        return 1
    return None


def tate_module_2(field) -> GroupDescription:
    """Inverse limit of the 2-power roots of unity under squaring.

    Trivial over every prime field (including characteristic 2, where 1 is
    the only 2-power root) and over Q; the symbolic labels in
    SYMBOLIC_TATE_FIELDS are answered from the table as Z_2 without
    arithmetic.
    """
    if isinstance(field, str):
        if field in SYMBOLIC_TATE_FIELDS:
            return GroupDescription(free_rank=0, torsion=(), symbol="Z_2")
        raise EvoautError(f"unknown symbolic field label {field!r}")
    if isinstance(field, (PrimeField, RationalField)):
        return GroupDescription(free_rank=0, torsion=(), field=field)
    raise EvoautError(f"unsupported field {field!r}")


def verify_stationary_collapse(field: PrimeField, depth: int) -> bool:
    """Oracle for the triviality of the 2-power inverse limit over F_p.

    Enumerates every depth-N tuple (x_1, ..., x_N) with x_i in mu_{2^i} and
    x_{i+1}**2 == x_i: the squaring chain anchored by x_1**2 == 1, since
    x_{i+1}**(2^(i+1)) == x_i**(2^i).  It then checks that all coordinates
    with stationary headroom above them (indices <= N - s, s the stationary
    index) equal 1.  The depth-N solution set itself retains 2^s free tail
    coordinates, so the collapse is exactly the survival statement under
    projection.
    """
    if not isinstance(field, PrimeField):
        raise NotPrimeField("stationarity oracle requires a prime field")
    s = tate_stationary_index(field)
    if depth <= s + 1:
        raise DepthTooSmall(f"depth must exceed stationary index {s} + 1")
    check_chain_budget(field, depth)  # before the exponent tuple is built
    chains = truncated_chain(ChainSpec(field, (2,) * depth, anchor=1)).tuples
    # the all-ones chain is always there: an empty census proves nothing
    return bool(chains) and all(x == field.one for chain in chains for x in chain[:depth - s])


def loop_chain_algebra(field: Field, n: int) -> EvolutionAlgebra:
    """Loop-rooted chain: e_1**2 = e_1 and e_{i+1}**2 = e_i."""
    if n < 1:
        raise ValueError("dimension must be positive")
    squares = []
    for i in range(n):
        col = [0] * n
        col[max(i - 1, 0)] = 1
        squares.append(col)
    return EvolutionAlgebra.from_squares(field, squares)


def loop_chain_diag_group(field: Field, n: int) -> GroupDescription:
    """Diagonal group of the n-dimensional loop-rooted chain: mu_{2^(n-1)}(K)."""
    return diag_group(loop_chain_algebra(field, n))
