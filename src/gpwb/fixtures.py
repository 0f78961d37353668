"""Slope-stability verdicts for decomposable curve fixtures.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

KINDS = ("pair_tensor", "triple_fixed_E2", "coherent_system", "twisted_triple", "higgs")


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(x).limit_denominator(10**12)


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown fixture kind {self.kind!r}")
        arity = 3 if self.kind == "twisted_triple" else 2
        if len(self.degrees) != arity or len(self.c) != arity:
            raise ValueError(f"{self.kind} needs {arity} degree rows and {arity} central "
                             f"scalars, got {len(self.degrees)} and {len(self.c)}")
        degs = tuple(tuple(int(d) for d in row) for row in self.degrees)
        sup = tuple(tuple(int(i) for i in s) for s in self.support)
        # a support index picks one summand per slot; the two slots of a
        # higgs field are endomorphism indices of the first factor
        rows = (degs[0], degs[0]) if self.kind == "higgs" else degs
        for s in sup:
            if len(s) != len(rows) or not all(0 <= i < len(r) for i, r in zip(s, rows)):
                raise ValueError(f"support index {list(s)} does not index the summands "
                                 f"{[list(r) for r in rows]} of a {self.kind} fixture")
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


def _fin(best, slack, cand):
    if best is None or slack < best[0]:
        return (slack, cand)
    return best


def _verdict_from(best, vacuous_note=""):
    if best is None:
        return FixtureVerdict(stable=True, slack=None, note=vacuous_note or "no admissible directions")
    slack, wit = best
    return FixtureVerdict(stable=bool(slack > 0), slack=slack, witness=wit,
                          marginal=bool(slack == 0))


def _subsets(n):
    for r in range(n + 1):
        for s in itertools.combinations(range(n), r):
            yield frozenset(s)


def _deg(degree_row, subset):
    return sum(degree_row[i] for i in subset)


# ---------------------------------------------------------------------------
# weight bookkeeping (general evaluator used by the reduction check)


def deg_alpha(weights, chain_data, c):
    """alpha_r (deg V - c rk V) + sum_{k<r} (alpha_k - alpha_{k+1})
    (deg V_k - c rk V_k); chain_data = [(deg, rk), ...] increasing."""
    weights = [_frac(a) for a in weights]
    c = _frac(c)
    if any(b < a for a, b in zip(weights, weights[1:])) or len(weights) != len(chain_data):
        raise ValueError("weights must be non-decreasing and match the chain")
    dr = [(Fraction(int(d)), Fraction(int(r))) for d, r in chain_data]
    out = weights[-1] * (dr[-1][0] - c * dr[-1][1])
    for k in range(len(weights) - 1):
        out += (weights[k] - weights[k + 1]) * (dr[k][0] - c * dr[k][1])
    return out


def p_indices(weights, chain_subsets, support_rows):
    """(p_alpha, p_chi): the last step with non-positive weight and the
    first step containing the section support (0-sentinels when none)."""
    weights = [_frac(a) for a in weights]
    p_alpha = 0
    for i, a in enumerate(weights, start=1):
        if a <= 0:
            p_alpha = i
    p_chi = 0
    rows = set(support_rows)
    for i, s in enumerate(chain_subsets, start=1):
        if rows <= set(s):
            p_chi = i
            break
    return p_alpha, p_chi


# ---------------------------------------------------------------------------
# the five verdicts


def _support_rows(fixture, axis=0):
    return frozenset(s[axis] for s in fixture.support)


def pair_stable(fixture: CurveFixture, c=None) -> FixtureVerdict:
    """Twisted-pair stability: every summand subsheaf V' has slope < c, and
    every proper V' containing the section support has quotient slope > c."""
    if fixture.kind != "pair_tensor":
        raise ValueError("fixture kind must be pair_tensor")
    c = _frac(c if c is not None else fixture.c[0])
    deg1 = fixture.degrees[0]
    n1 = len(deg1)
    rows = _support_rows(fixture, 0)
    best = None
    for s in _subsets(n1):
        r = len(s)
        if r > 0:
            slack = c * r - _deg(deg1, s)  # mu(V') < c
            best = _fin(best, slack, ("sub", tuple(sorted(s))))
        if r < n1 and rows <= s:
            q_deg = sum(deg1) - _deg(deg1, s)
            slack = q_deg - c * (n1 - r)   # mu(V1/V') > c
            best = _fin(best, slack, ("quotient", tuple(sorted(s))))
    return _verdict_from(best)


def triple_stable(fixture: CurveFixture, c=None) -> FixtureVerdict:
    """Fixed-second-bundle triple stability, checked in both the two-sided
    slope form and the alpha-slope form; the two must agree."""
    if fixture.kind != "triple_fixed_E2":
        raise ValueError("fixture kind must be triple_fixed_E2")
    c = _frac(c if c is not None else fixture.c[0])
    deg1, deg2 = fixture.degrees[0], fixture.degrees[1]
    n1, n2 = len(deg1), len(deg2)
    rows = _support_rows(fixture, 0)
    best = None
    for s in _subsets(n1):
        r = len(s)
        if r > 0:
            best = _fin(best, c * r - _deg(deg1, s), ("sub", tuple(sorted(s))))
        if r < n1 and rows <= s:
            slack = (sum(deg1) - _deg(deg1, s)) - c * (n1 - r)
            best = _fin(best, slack, ("quotient", tuple(sorted(s))))
    v = _verdict_from(best)

    # alpha-slope reformulation: mu_alpha of subtriples with the second
    # bundle whole or zero, alpha chosen so mu_alpha(total) = c
    alpha = (c * (n1 + n2) - sum(deg1) - sum(deg2)) / Fraction(n2)
    alt = None
    for s in _subsets(n1):
        r = len(s)
        if r > 0:
            # (E1', 0): mu < c
            alt = _fin(alt, c * r - _deg(deg1, s), ("sub", tuple(sorted(s))))
        if r < n1 and rows <= s:
            num = _deg(deg1, s) + sum(deg2) + alpha * n2
            alt = _fin(alt, c * (r + n2) - num, ("quotient", tuple(sorted(s))))
    v2 = _verdict_from(alt)
    if (v.stable, v.slack) != (v2.stable, v2.slack):
        raise AssertionError("two-sided and alpha-slope formulations disagree")
    return v


def coherent_system_stable(fixture: CurveFixture, c1=None, c2=None) -> FixtureVerdict:
    """Coherent-system stability over (subsheaf, section-subset) pairs.

    Requires the trace constraint deg(E) = c1 rk + c2 k exactly; otherwise
    the verdict carries the unsolvable flag and no stability claim.  The
    pair enumeration subsumes the single-subsheaf inequality with maximal
    compatible section count and also enforces the sign condition on c2
    coming from the constant-factor directions.
    """
    if fixture.kind != "coherent_system":
        raise ValueError("fixture kind must be coherent_system")
    c1 = _frac(c1 if c1 is not None else fixture.c[0])
    c2 = _frac(c2 if c2 is not None else fixture.c[1])
    deg = fixture.degrees[0]
    n = len(deg)
    k = len(fixture.degrees[1])
    constraint = Fraction(sum(deg)) - c1 * n - c2 * k
    if constraint != 0:
        return FixtureVerdict(stable=False, slack=None, unsolvable=True,
                              note=f"constraint deg - c1 rk - c2 k = {constraint} != 0")
    # support: multi-index (i, j): section j lies in summand i
    sec_rows = {j: frozenset(i for i, jj in fixture.support if jj == j) for j in range(k)}
    best = None
    for s in _subsets(n):
        for t in _subsets(k):
            if (len(s) == 0 and len(t) == 0) or (len(s) == n and len(t) == k):
                continue
            if any(not sec_rows[j] <= s for j in t):
                continue  # sections of t must land inside s
            slack = c1 * len(s) + c2 * len(t) - _deg(deg, s)
            best = _fin(best, slack, ("pair", tuple(sorted(s)), tuple(sorted(t))))
    return _verdict_from(best)


def twisted_triple_stable(fixture: CurveFixture, c1=None, c2=None) -> FixtureVerdict:
    """Twisted-triple stability over pairs of summand subsheaves with the
    map-compatibility filter, under the global sum rule."""
    if fixture.kind != "twisted_triple":
        raise ValueError("fixture kind must be twisted_triple")
    c1 = _frac(c1 if c1 is not None else fixture.c[0])
    c2 = _frac(c2 if c2 is not None else fixture.c[1])
    deg1, deg2 = fixture.degrees[0], fixture.degrees[1]
    n1, n2 = len(deg1), len(deg2)
    rule = c1 * n1 + c2 * n2 - sum(deg1) - sum(deg2)
    if rule != 0:
        return FixtureVerdict(stable=False, slack=None, unsolvable=True,
                              note=f"sum rule n1 c1 + n2 c2 - deg = {rule} != 0")
    best = None
    for s1 in _subsets(n1):
        for s2 in _subsets(n2):
            if len(s1) == 0 and len(s2) == 0:
                continue
            if len(s1) == n1 and len(s2) == n2:
                continue
            ok = all(not (j in s2) or (i in s1) for (i, j, *_rest) in fixture.support)
            if not ok:
                continue
            slack = c1 * len(s1) + c2 * len(s2) - _deg(deg1, s1) - _deg(deg2, s2)
            best = _fin(best, slack,
                        ("pair", tuple(sorted(s1)), tuple(sorted(s2))))
    return _verdict_from(best)


def higgs_stable(fixture: CurveFixture) -> FixtureVerdict:
    """Slope condition over endomorphism-invariant summand subsheaves; the
    central scalar is pinned to the slope of the bundle."""
    if fixture.kind != "higgs":
        raise ValueError("fixture kind must be higgs")
    deg = fixture.degrees[0]
    m = len(deg)
    mu = Fraction(sum(deg), m)
    cm = fixture.c[0]
    if cm != mu:
        return FixtureVerdict(stable=False, slack=None, unsolvable=True,
                              note=f"cm != slope: obstruction {mu - cm}")
    # support pairs (a, b): component mapping summand b into summand a
    best = None
    for s in _subsets(m):
        if len(s) == 0 or len(s) == m:
            continue
        invariant = all(not (b in s) or (a in s) for (a, b, *_rest) in fixture.support)
        if not invariant:
            continue
        slack = mu * len(s) - _deg(deg, s)  # mu(E') < mu(E)
        best = _fin(best, slack, ("invariant", tuple(sorted(s))))
    return _verdict_from(best, vacuous_note="no invariant proper summand subsheaf")


def verdict(fixture: CurveFixture) -> FixtureVerdict:
    return {
        "pair_tensor": pair_stable,
        "triple_fixed_E2": triple_stable,
        "coherent_system": coherent_system_stable,
        "twisted_triple": twisted_triple_stable,
        "higgs": higgs_stable,
    }[fixture.kind](fixture)


# ---------------------------------------------------------------------------
# generator cone vs full-cone reduction check


def _gauge_factors(kind):
    return [0, 1] if kind in ("coherent_system", "twisted_triple") else [0]


def _summand_eigenvalue(fixture, chain, alpha, multi_idx):
    """Induced eigenvalue of the chain element on one target summand."""
    kind = fixture.kind

    def step_of(f, i):
        for k, step in enumerate(chain):
            if i in step[f]:
                return k
        raise ValueError("chain does not exhaust the summands")

    if kind in ("pair_tensor", "triple_fixed_E2"):
        return alpha[step_of(0, multi_idx[0])]
    if kind in ("coherent_system", "twisted_triple"):
        return alpha[step_of(0, multi_idx[0])] - alpha[step_of(1, multi_idx[1])]
    # higgs: endomorphism component (a, b) maps summand b into summand a
    return alpha[step_of(0, multi_idx[0])] - alpha[step_of(0, multi_idx[1])]


def _target_summands(fixture):
    kind = fixture.kind
    n0 = len(fixture.degrees[0])
    if kind in ("pair_tensor", "triple_fixed_E2"):
        return [(i,) for i in range(n0)]
    if kind in ("coherent_system", "twisted_triple"):
        n1 = len(fixture.degrees[1])
        return [(i, j) for i in range(n0) for j in range(n1)]
    return [(a, b) for a in range(n0) for b in range(n0)]


def _acts_trivially(fixture, chain, alpha):
    return all(
        _summand_eigenvalue(fixture, chain, alpha, s) == 0
        for s in _target_summands(fixture)
    )


def _filtration_weight(fixture, chain, alpha):
    """Full-formula total weight of a joint chain with weights alpha:
    sum_k alpha_k (deg gr_k - sum_f c_f rk_f(gr_k)); None (+infinity)
    unless every supported summand has non-positive induced eigenvalue."""
    alpha = [_frac(a) for a in alpha]
    factors = _gauge_factors(fixture.kind)
    for s in fixture.support:
        if _summand_eigenvalue(fixture, chain, alpha, s) > 0:
            return None
    total = Fraction(0)
    prev = {f: frozenset() for f in factors}
    for k, step in enumerate(chain):
        for f in factors:
            gr = set(step[f]) - set(prev[f])
            d = sum(fixture.degrees[f][i] for i in gr)
            total += alpha[k] * (Fraction(d) - fixture.c[f] * len(gr))
            prev[f] = step[f]
    return total


def random_joint_chain(fixture, rng, max_len=3):
    """Random increasing chain of per-factor summand subsets whose last
    step is everything."""
    factors = _gauge_factors(fixture.kind)
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
    r = len(chain)
    gens = []
    for i in range(1, r + 1):
        gens.append([Fraction(-1)] * i + [Fraction(0)] * (r - i))
    for j in range(1, r + 1):
        gens.append([Fraction(0)] * (j - 1) + [Fraction(1)] * (r - j + 1))
    out = []
    for a in gens:
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
