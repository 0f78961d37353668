"""The example kinds as one table, and their exact slope-stability verdicts.

``KINDS`` describes each example class of the paper (pairs, triples,
coherent systems, twisted triples, Higgs bundles) as data: its slots and
factor modes, its trace constraint and how the lattice assembly and the
CLI name its parameters.  Everything kind-specific elsewhere reads it.

A fixture is a direct sum of line bundles per factor (integer Chern
numbers; paper-normalised degree = 2*pi*Chern number), a combinatorial
support pattern saying which summands of the induced target bundle carry
the section, and rational central parameters in Chern units.  All
inequalities are decided in exact rational arithmetic over the finite
lattice of summand-generated subsheaves; claims are scoped to that
lattice.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .groups import CONSTANT, FROZEN, FULL
from .kempf_ness import chain_generator_weights
from .reps import ADJOINT, DUAL, STANDARD


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(x).limit_denominator(10**12)


@dataclass(frozen=True)
class ExampleKind:
    """One example class as data.

    ``slots`` gives (action, factor) per tensor slot of V and
    ``factor_modes`` the subgroup mode of each factor; the gauge factors
    are the unfrozen ones.  ``degree_params`` and ``scalar_params`` name
    the ``assemble_example`` parameter of each degree row and central
    scalar: None for a frozen factor (trivial line, scalar 0), and the
    parameter of a constant-mode factor, whose bundle is trivial, is its
    rank.  A support index picks one summand per slot, two (a, b) for an
    adjoint slot, over the first ``support_slots`` slots (all by default);
    the remaining slots take summand 0.

    ``constraint`` is (diagnostic key, sign, note) of the trace constraint
    sign * (deg - sum_f c_f rk_f) = 0 over the gauge factors; the note
    formats the exact value as ``slack`` or ``per_rank`` (divided by the
    rank of factor 0).  ``witness_labels`` name the subobject of a
    lowering and of a raising chain generator.
    """

    cli_mode: str
    slots: tuple
    factor_modes: tuple
    degree_params: tuple
    scalar_params: tuple
    default_fixture: tuple                    # (degrees, support, c) the CLI runs by default
    witness_labels: tuple = ("pair", "pair")
    constraint: tuple = None
    default_support: bool = True              # the summands of non-negative degree; else none
    support_slots: int = None
    vacuous_note: str = "no admissible directions"
    newton_oracle: bool = False               # the CLI cross-checks rank 1 with newton_abelian
    gauge: tuple = field(init=False)
    positions: tuple = field(init=False)      # (factor, sign) per support-index entry

    def __post_init__(self):
        signs = {STANDARD: (1,), DUAL: (-1,), ADJOINT: (1, -1)}
        object.__setattr__(self, "gauge", tuple(
            f for f, m in enumerate(self.factor_modes) if m != FROZEN))
        object.__setattr__(self, "positions", tuple(
            (f, sign) for action, f in self.slots[:self.support_slots] for sign in signs[action]))

    def slot_index(self, index, dims):
        """Multi-index into V of a support index (``dims``: factor ranks)."""
        index = [int(i) for i in index]
        if len(index) != len(self.positions):
            raise ValueError(f"support index {index} needs {len(self.positions)} entries")
        out = []
        for action, f in self.slots[:self.support_slots]:
            out.append(index.pop(0) * dims[f] + index.pop(0) if action == ADJOINT
                       else index.pop(0))
        return tuple(out) + (0,) * (len(self.slots) - len(out))


KINDS = {
    "pair_tensor": ExampleKind(
        "pair", ((STANDARD, 0), (STANDARD, 1)), (FULL, FROZEN), ("deg1", "deg2"), ("c", None),
        (((1,), (0,)), ((0, 0),), (2, 0)), witness_labels=("sub", "quotient"),
        newton_oracle=True),
    "triple_fixed_E2": ExampleKind(
        "triple", ((STANDARD, 0), (DUAL, 1)), (FULL, FROZEN), ("deg1", "deg2"), ("c", None),
        (((1,), (0,)), ((0, 0),), (2, 0)), witness_labels=("sub", "quotient")),
    "coherent_system": ExampleKind(
        "coherent_system", ((STANDARD, 0), (DUAL, 1)), (FULL, CONSTANT), ("deg", "k"),
        ("c1", "c2"), (((1,), (0,)), ((0, 0),), (2, -1)),
        constraint=("constraint_slack", 1, "constraint deg - c1 rk - c2 k = {slack} != 0")),
    "twisted_triple": ExampleKind(
        "twisted_triple", ((STANDARD, 0), (DUAL, 1), (DUAL, 2)), (FULL, FULL, FROZEN),
        ("deg1", "deg2", "deg3"), ("c1", "c2", None),
        (((1,), (0,), (0,)), ((0, 0, 0),), (Fraction(3, 2), Fraction(-1, 2), 0)),
        constraint=("sum_rule_slack", -1, "sum rule n1 c1 + n2 c2 - deg = {slack} != 0")),
    # the second factor is the cotangent line of the flat torus
    "higgs": ExampleKind(
        "higgs", ((ADJOINT, 0), (STANDARD, 1)), (FULL, FROZEN), ("deg", None), ("cm", None),
        (((0, 0), (0,)), ((0, 1), (1, 0)), (0, 0)), witness_labels=("invariant", "invariant"),
        constraint=("trace_obstruction", 1, "cm != slope: obstruction {per_rank}"),
        default_support=False, support_slots=1,
        vacuous_note="no invariant proper summand subsheaf"),
}


@dataclass(frozen=True)
class CurveFixture:
    """Decomposable fixture: per-factor summand Chern numbers, section
    support over target summand multi-indices, central scalars in Chern
    units (physical value = 2*pi*c)."""

    kind: str
    degrees: tuple          # tuple of tuples of ints, one per factor
    support: tuple          # tuple of multi-index tuples
    c: tuple                # rational central scalars, one per factor

    def __post_init__(self):
        entry = KINDS.get(self.kind)
        if entry is None:
            raise ValueError(f"unknown fixture kind {self.kind!r}")
        arity = len(entry.factor_modes)
        if len(self.degrees) != arity or len(self.c) != arity:
            raise ValueError(f"{self.kind} needs {arity} degree rows and {arity} central "
                             f"scalars, got {len(self.degrees)} and {len(self.c)}")
        degs = tuple(tuple(int(d) for d in row) for row in self.degrees)
        sup = tuple(tuple(int(i) for i in s) for s in self.support)
        rows = [degs[f] for f, _ in entry.positions]
        for s in sup:
            if len(s) != len(rows) or not all(0 <= i < len(r) for i, r in zip(s, rows)):
                raise ValueError(f"support index {list(s)} does not index the summands "
                                 f"{[list(r) for r in rows]} of a {self.kind} fixture")
        if any(any(degs[f]) for f, m in enumerate(entry.factor_modes) if m == CONSTANT):
            raise ValueError(f"a constant-mode factor of a {self.kind} fixture is trivial: "
                             f"its degrees must be 0")
        for f, name in enumerate(entry.degree_params):
            if name is None and degs[f] != (0,):
                raise ValueError(f"factor {f} of a {self.kind} fixture is the trivial line: "
                                 f"its degrees must be [0], got {list(degs[f])}")
        cs = tuple(_frac(x) for x in self.c)
        object.__setattr__(self, "degrees", degs)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "c", cs)

    def total_degree(self, factor):
        return sum(self.degrees[factor])

    def slope(self, factor):
        return Fraction(self.total_degree(factor), len(self.degrees[factor]))


@dataclass
class FixtureVerdict:
    stable: bool
    slack: Fraction = None          # min over enumerated directions; None if vacuous
    witness: tuple = None           # description of the minimising direction
    marginal: bool = False
    unsolvable: bool = False
    note: str = ""

    def __post_init__(self):
        if self.slack is not None and not self.unsolvable and self.stable != (self.slack > 0):
            raise ValueError(f"verdict stable={self.stable} contradicts slack {self.slack}")


def _subsets(n):
    for r in range(n + 1):
        for s in itertools.combinations(range(n), r):
            yield frozenset(s)


# ---------------------------------------------------------------------------
# the verdict engine


def verdict(fixture: CurveFixture) -> FixtureVerdict:
    """Exact verdict: the kind's trace constraint, then the least weight of
    the two-eigenvalue generators of every single-step joint chain
    S < everything, S running over the summand subsets of the gauge factors.

    The minimising generator names the witness: the summands its lowering
    (or raising) step keeps at the lower weight."""
    entry = KINDS[fixture.kind]
    if entry.constraint:
        _, sign, note = entry.constraint
        slack = sign * sum(sum(fixture.degrees[f]) - fixture.c[f] * len(fixture.degrees[f])
                           for f in entry.gauge)
        if slack != 0:
            return FixtureVerdict(stable=False, slack=None, unsolvable=True, note=note.format(
                slack=slack, per_rank=slack / len(fixture.degrees[0])))
    everything = {f: frozenset(range(len(fixture.degrees[f]))) for f in entry.gauge}
    best = None
    for parts in itertools.product(*(_subsets(len(fixture.degrees[f])) for f in entry.gauge)):
        step = dict(zip(entry.gauge, parts))
        chain = [step, everything] if step != everything else [everything]
        for alpha, w in chain_generators(fixture, chain):
            if best is None or w < best[0]:
                low = -1 if alpha[0] < 0 else 0
                sub = [s for s, a in zip(chain, alpha) if a == low]
                best = (w, (entry.witness_labels[low + 1],) + tuple(
                    tuple(sorted(sub[-1][f])) if sub else () for f in entry.gauge))
    if best is None:
        return FixtureVerdict(stable=True, slack=None, note=entry.vacuous_note)
    slack, witness = best
    return FixtureVerdict(stable=bool(slack > 0), slack=slack, witness=witness,
                          marginal=bool(slack == 0))


# ---------------------------------------------------------------------------
# chain generators, and the generator-cone vs full-cone reduction check


def induced_weight(kind, weights, index):
    """Exact weight on the target summand ``index`` (a support index of
    ``kind``) of the diagonal generator with summand weights ``weights[f]``
    on each gauge factor f, read from the kind's slots."""
    # signs by negation and the sum seeded with its first term: the
    # reduction check calls this on Fractions, whose products are slow
    terms = [weights[f][i] if sign > 0 else -weights[f][i]
             for (f, sign), i in zip(KINDS[kind].positions, index) if f in weights]
    return sum(terms[1:], terms[0])


def _chain_weights(fixture, chain, alpha):
    """Summand weights per gauge factor: alpha of the first step holding it."""
    return {f: [next(a for a, step in zip(alpha, chain) if i in step[f])
                for i in range(len(fixture.degrees[f]))] for f in chain[0]}


def _acts_trivially(fixture, chain, alpha):
    weights = _chain_weights(fixture, chain, alpha)
    rows = [range(len(fixture.degrees[f])) for f, _ in KINDS[fixture.kind].positions]
    return all(induced_weight(fixture.kind, weights, s) == 0 for s in itertools.product(*rows))


def _filtration_weight(fixture, chain, alpha):
    """Full-formula total weight of a joint chain with weights alpha:
    sum_k alpha_k (deg gr_k - sum_f c_f rk_f(gr_k)); None (+infinity)
    unless every supported summand has non-positive induced eigenvalue."""
    weights = _chain_weights(fixture, chain, alpha)
    if any(induced_weight(fixture.kind, weights, s) > 0 for s in fixture.support):
        return None
    total = Fraction(0)
    prev = {f: frozenset() for f in chain[0]}
    for a, step in zip(alpha, chain):
        for f in step:
            gr = set(step[f]) - set(prev[f])
            d = sum(fixture.degrees[f][i] for i in gr)
            total += _frac(a) * (Fraction(d) - fixture.c[f] * len(gr))
            prev[f] = step[f]
    return total


def random_joint_chain(fixture, rng, max_len=3):
    """Random increasing chain of per-factor summand subsets whose last
    step is everything."""
    factors = KINDS[fixture.kind].gauge
    r = int(rng.integers(1, max_len + 1))
    cuts = {}
    for f in factors:
        nf = len(fixture.degrees[f])
        perm = list(rng.permutation(nf))
        bounds = sorted(rng.integers(0, nf + 1, size=r - 1).tolist()) + [nf]
        cuts[f] = [frozenset(perm[:b]) for b in bounds]
    chain = [{f: cuts[f][k] for f in factors} for k in range(r)]
    out = []
    for step in chain:
        if out and all(step[f] == out[-1][f] for f in factors):
            continue
        out.append(step)
    return out


def chain_generators(fixture, chain):
    """Finite-weight two-eigenvalue generators of a joint chain, with the
    trivially-acting central directions dropped.  Returns a list of
    (alpha vector, weight)."""
    out = []
    for a in chain_generator_weights(len(chain)):
        if _acts_trivially(fixture, chain, a):
            continue
        w = _filtration_weight(fixture, chain, a)
        if w is not None:
            out.append((a, w))
    return out


def ssc_reduction_equiv(fixture: CurveFixture, trials=1000, rng=None, chains=12):
    """Sampled check that two-eigenvalue generators decide stability.

    Draws random joint chains, forms their generator weight vectors, and
    confirms (a) linearity: the full multi-step weight of every sampled
    cone point equals the same non-negative combination of generator
    weights, and (b) sign agreement with the subset-slope verdict.
    Marginal and unsolvable fixtures are flagged and excluded from the
    strict claim.
    """
    rng = rng or np.random.default_rng(0)
    v = verdict(fixture)
    if v.unsolvable or v.marginal:
        return True, v
    per_chain = max(1, trials // max(chains, 1))
    min_gen = None
    for _ in range(chains):
        chain = random_joint_chain(fixture, rng)
        r = len(chain)
        finite = chain_generators(fixture, chain)
        for _, w in finite:
            min_gen = w if min_gen is None else min(min_gen, w)
        if not finite:
            continue
        for _ in range(per_chain):
            lam = [_frac(round(float(x), 6)) for x in rng.random(len(finite))]
            if all(l == 0 for l in lam):
                continue
            alpha = [sum(l * a[k] for l, (a, _) in zip(lam, finite)) for k in range(r)]
            expect = sum(l * w for l, (_, w) in zip(lam, finite))
            got = _filtration_weight(fixture, chain, alpha)
            if got is None or got != expect:
                return False, v
            if v.stable and got <= 0 and any(l > 0 for l in lam):
                return False, v
    if v.stable and min_gen is not None and min_gen <= 0:
        return False, v
    return True, v


# ---------------------------------------------------------------------------
# file format


def save_fixture(path, fixture: CurveFixture):
    payload = {
        "kind": fixture.kind,
        "degrees": [list(r) for r in fixture.degrees],
        "support": [list(s) for s in fixture.support],
        "c": [str(x) for x in fixture.c],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def load_fixture(path) -> CurveFixture:
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    extra = set(payload) - {"kind", "degrees", "support", "c"}
    if extra:
        raise ValueError(f"unknown fixture fields: {sorted(extra)}")
    return CurveFixture(payload["kind"],
                        tuple(tuple(r) for r in payload["degrees"]),
                        tuple(tuple(s) for s in payload["support"]),
                        tuple(payload["c"]))
