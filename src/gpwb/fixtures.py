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
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .groups import CONSTANT, FROZEN, FULL
from .kempf_ness import StabilityVerdict, chain_generator_weights
from .reps import ADJOINT, AXES, DUAL, STANDARD


def _frac(x):
    """An exact rational; a float is read as the decimal it prints, so a JSON
    number means the same in a fixture file as inline in a run config."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return Fraction(int(x))
    return x if isinstance(x, Fraction) else Fraction(str(x))


def _int(x):
    """An integer degree or support index; a float or bool is refused, not rounded."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    raise ValueError(f"expected an integer degree or support index, got {x!r}")


@dataclass(frozen=True)
class ExampleKind:
    """One example class as data.

    ``slots`` gives (action, factor) per tensor slot of V and
    ``factor_modes`` the subgroup mode of each factor; the gauge factors
    are the unfrozen ones.  ``degree_params`` and ``scalar_params`` name
    the ``assemble_example`` parameter of each degree row and central
    scalar: None for a frozen factor (trivial line, scalar 0), and the
    parameter of a constant-mode factor, whose bundle is trivial, is its
    rank.  A support index picks one summand per tensor axis of V (``AXES``:
    two, (a, b), for an adjoint slot) over the first ``support_slots`` slots
    (all by default); the axes of the remaining slots take summand 0.

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
        object.__setattr__(self, "gauge", tuple(
            f for f, m in enumerate(self.factor_modes) if m != FROZEN))
        object.__setattr__(self, "positions", tuple(
            (f, sign) for action, f in self.slots[:self.support_slots] for sign in AXES[action]))

    def slot_index(self, index):
        """Multi-index over the tensor axes of V of a support index."""
        index = [int(i) for i in index]
        if len(index) != len(self.positions):
            raise ValueError(f"support index {index} needs {len(self.positions)} entries")
        return tuple(index) + (0,) * (sum(len(AXES[a]) for a, _ in self.slots) - len(index))


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
        degs = tuple(tuple(_int(d) for d in row) for row in self.degrees)
        sup = tuple(tuple(_int(i) for i in s) for s in self.support)
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


def _subsets(n):
    for r in range(n + 1):
        for s in itertools.combinations(range(n), r):
            yield frozenset(s)


# ---------------------------------------------------------------------------
# the verdict engine


def verdict(fixture: CurveFixture) -> StabilityVerdict:
    """Exact verdict: the kind's trace constraint, then the least weight
    over the summand subsets S of the gauge factors of the two generators
    of the single step S < everything: weight -1 on S and 0 off it
    (lowering S), and 0 on S and 1 off it (raising everything over S).

    This decides the sign over every joint chain of summand subsets: the
    admissible weights of a chain form the cone of its two-eigenvalue
    generators (``chain_generator_weights``), the weight is additive on
    it, and each generator is the lowering or the raising of one member
    of the chain.  The central
    directions are the lowering of S = everything and the raising over
    S = empty.  The minimising generator names the witness: S, labelled
    by the kind's lowering or raising label."""
    entry = KINDS[fixture.kind]
    if entry.constraint:
        _, sign, note = entry.constraint
        slack = sign * sum(sum(fixture.degrees[f]) - fixture.c[f] * len(fixture.degrees[f])
                           for f in entry.gauge)
        if slack != 0:
            return StabilityVerdict(stable=False, slack=None, unsolvable=True, note=note.format(
                slack=slack, per_rank=slack / len(fixture.degrees[0])))
    everything = {f: frozenset(range(len(fixture.degrees[f]))) for f in entry.gauge}
    best = None
    for parts in itertools.product(*(_subsets(len(fixture.degrees[f])) for f in entry.gauge)):
        chain = [dict(zip(entry.gauge, parts)), everything]
        for label, alpha in zip(entry.witness_labels, ([-1, 0], [0, 1])):
            if _acts_trivially(fixture, chain, alpha):
                continue
            w = _filtration_weight(fixture, chain, alpha)
            if w is not None and (best is None or w < best[0]):
                best = (w, (label,) + tuple(tuple(sorted(p)) for p in parts))
    if best is None:
        return StabilityVerdict(stable=True, slack=None, note=entry.vacuous_note)
    slack, witness = best
    return StabilityVerdict(stable=bool(slack > 0), slack=slack, witness=witness,
                          marginal=bool(slack == 0))


# ---------------------------------------------------------------------------
# chain generators, and the generator-cone vs full-cone reduction check


def induced_weight(kind, weights, index):
    """Exact weight on the target summand ``index`` (a support index of
    ``kind``) of the diagonal generator with summand weights ``weights[f]``
    on each gauge factor f, read from the kind's slots."""
    return sum(sign * weights[f][i]
               for (f, sign), i in zip(KINDS[kind].positions, index) if f in weights)


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
    unless every supported summand has non-positive induced eigenvalue.

    Summed per summand instead of per step: summand i of factor f lies in
    the graded piece of the first step holding it, whose weight is w_f[i],
    so the weight is sum_f (sum_i w_f[i] d_f[i] - c_f sum_i w_f[i]).  Over
    the common denominator of the central scalars that sum is an integer
    for integer alpha, and one rational is built, at the end."""
    weights = _chain_weights(fixture, chain, alpha)
    if any(induced_weight(fixture.kind, weights, s) > 0 for s in fixture.support):
        return None
    den, cnum = _central_numerators(fixture)
    return Fraction(sum(den * sum(w * d for w, d in zip(weights[f], fixture.degrees[f]))
                        - cnum[f] * sum(weights[f]) for f in weights), den)


def _central_numerators(fixture):
    """The least common denominator of the central scalars, over which every
    weight with integer alpha is an integer, and their numerators over it."""
    den = math.lcm(*(c.denominator for c in fixture.c))
    return den, [c.numerator * (den // c.denominator) for c in fixture.c]


# the sampling of ``ssc_reduction_equiv``: chains per check, steps per chain
SSC_CHAINS = 12
CHAIN_MAX_LEN = 3


def random_joint_chain(fixture, rng):
    """Random increasing chain of per-factor summand subsets whose last
    step is everything, with at most ``CHAIN_MAX_LEN`` steps."""
    factors = KINDS[fixture.kind].gauge
    r = int(rng.integers(1, CHAIN_MAX_LEN + 1))
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


def ssc_reduction_equiv(fixture: CurveFixture, trials=1000, rng=None):
    """Sampled check that two-eigenvalue generators decide stability.

    Draws ``SSC_CHAINS`` random joint chains, forms their generator weight
    vectors, and confirms (a) linearity: the full multi-step weight of every
    sampled cone point equals the same non-negative combination of generator
    weights, and (b) sign agreement with the subset-slope verdict.
    Marginal and unsolvable fixtures are flagged and excluded from the
    strict claim.  Returns (ok, the verdict).

    The cone coefficients are drawn to six decimals and kept as their
    integer numerators round(x 10^6).  That is exact: on a fixed chain the
    summand weights are entries of alpha, so the weight and every induced
    eigenvalue of the support test are linear in alpha.  Scaling a sample by
    10^6 scales both sides of (a) alike and keeps every sign that (a) and
    (b) test, so the check decides as on the rational coefficients, in
    integers.
    """
    rng = rng or np.random.default_rng(0)
    v = verdict(fixture)
    if v.unsolvable or v.marginal:
        return True, v
    per_chain = max(1, trials // SSC_CHAINS)
    den, _ = _central_numerators(fixture)
    min_gen = None
    for _ in range(SSC_CHAINS):
        chain = random_joint_chain(fixture, rng)
        r = len(chain)
        finite = chain_generators(fixture, chain)
        for _, w in finite:
            min_gen = w if min_gen is None else min(min_gen, w)
        if not finite:
            continue
        gens = [a for a, _ in finite]
        nums = [int(w * den) for _, w in finite]  # the generator weights times den
        for _ in range(per_chain):
            lam = [round(x * 10**6) for x in rng.random(len(finite))]
            if not any(lam):
                continue
            alpha = [sum(l * a[k] for l, a in zip(lam, gens)) for k in range(r)]
            got = _filtration_weight(fixture, chain, alpha)
            if got is None or got != Fraction(sum(l * n for l, n in zip(lam, nums)), den):
                return False, v
            if v.stable and got <= 0:
                return False, v
    if v.stable and min_gen is not None and min_gen <= 0:
        return False, v
    return True, v


# ---------------------------------------------------------------------------
# file format


def fixture_to_dict(fixture: CurveFixture) -> dict:
    """The JSON object of a fixture, the inverse of ``fixture_from_dict``:
    the central scalars as strings, so they load back exactly."""
    return {"kind": fixture.kind,
            "degrees": [list(r) for r in fixture.degrees],
            "support": [list(s) for s in fixture.support],
            "c": [str(x) for x in fixture.c]}


def save_fixture(path, fixture: CurveFixture):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(fixture_to_dict(fixture), f, indent=1, sort_keys=True)
        f.write("\n")


def fixture_from_dict(payload, kind=None) -> CurveFixture:
    """The fixture of a JSON object with the fields ``fixture_to_dict`` writes,
    as a fixture file and an inline run-config fixture give it; a missing
    ``kind`` is ``kind`` and a missing ``support`` is empty."""
    extra = set(payload) - {"kind", "degrees", "support", "c"}
    if extra:
        raise ValueError(f"unknown fixture fields: {sorted(extra)}")
    return CurveFixture(payload.get("kind", kind),
                        tuple(tuple(r) for r in payload["degrees"]),
                        tuple(tuple(s) for s in payload.get("support", ())),
                        tuple(payload["c"]))


def load_fixture(path, kind=None) -> CurveFixture:
    with open(path, encoding="utf-8") as f:
        return fixture_from_dict(json.load(f), kind)
