import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpwb.fixtures import (
    KINDS,
    CurveFixture,
    FixtureVerdict,
    chain_generators,
    induced_weight,
    load_fixture,
    random_joint_chain,
    save_fixture,
    ssc_reduction_equiv,
    verdict,
)
from gpwb.kempf_ness import StabilityVerdict


def pair(degs, support_rows, c, deg2=(0,)):
    support = tuple((i, 0) for i in support_rows)
    return CurveFixture("pair_tensor", (tuple(degs), tuple(deg2)), support, (c, 0))


# ---------------------------------------------------------------------------
# chain indices against maximal_weight


def p_indices(weights, chain_subsets, support_rows):
    """(p_alpha, p_chi): the last step with non-positive weight and the
    first step containing the section support (0-sentinels when none)."""
    p_alpha = max((i for i, a in enumerate(weights, start=1) if a <= 0), default=0)
    p_chi = next((i for i, sub in enumerate(chain_subsets, start=1)
                  if set(support_rows) <= set(sub)), 0)
    return p_alpha, p_chi


def test_p_indices_membership_matches_eigen_oracle(rng):
    """p_chi <= p_alpha iff the realized section lies in the non-positive
    eigenspace of the realized chain element."""
    from gpwb.groups import AlgebraElement, ProductGroupSpec
    from gpwb.kempf_ness import maximal_weight
    from gpwb.reps import STANDARD, RepSpec, Slot

    spec = ProductGroupSpec((3, 1))
    rep = RepSpec(spec, (Slot(3, STANDARD, 0), Slot(1, STANDARD, 1)))
    for _ in range(30):
        rows = set(int(i) for i in rng.choice(3, size=rng.integers(1, 3), replace=False))
        x = np.zeros(3, complex)
        for i in rows:
            x[i] = rng.standard_normal() + 1j * rng.standard_normal()
        chain = [(0,), (0, 1), (0, 1, 2)]
        alpha = np.sort(rng.integers(-2, 3, size=3)).tolist()
        while len(set(alpha)) < 3:
            alpha = np.sort(rng.integers(-2, 3, size=3)).tolist()
        pa, pc = p_indices(alpha, chain, rows)
        blocks = np.zeros((3, 3), complex)
        assigned = set()
        for k, sub in enumerate(chain):
            for i in sub:
                if i not in assigned:
                    blocks[i, i] = -1j * alpha[k]
                    assigned.add(i)
        chi = AlgebraElement((blocks, np.zeros((1, 1), complex)), "compact")
        lam = maximal_weight(x, chi, rep)
        assert (pc <= pa and pc > 0) == (lam == 0.0)


# ---------------------------------------------------------------------------
# pair verdicts


def test_pair_two_summand_witness():
    f = pair([2, 0], support_rows=[1], c=1)
    v = verdict(f)
    assert not v.stable
    assert v.witness == ("sub", (0,))
    assert v.slack == Fraction(-1)


def test_pair_rank_one_threshold():
    for c, want in [(Fraction(3, 2), True), (Fraction(1, 2), False), (1, False)]:
        f = pair([1], support_rows=[0], c=c)
        v = verdict(f)
        assert v.stable is want
        if c == 1:
            assert v.marginal


def test_pair_large_c_unstable_when_support_proper():
    f = pair([1, 1], support_rows=[0], c=100)
    v = verdict(f)
    assert not v.stable  # quotient condition mu(V1/V') > c fails for large c


def test_pair_phi_zero_never_stable(rng):
    for _ in range(10):
        degs = rng.integers(-3, 4, size=2).tolist()
        c = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        v = verdict(pair(degs, support_rows=[], c=c))
        assert not v.stable


def test_pair_verdict_summand_permutation_invariant(rng):
    for _ in range(20):
        degs = rng.integers(-2, 3, size=3).tolist()
        rows = [int(i) for i in rng.choice(3, size=2, replace=False)]
        c = Fraction(int(rng.integers(-3, 4)), 2)
        v1 = verdict(pair(degs, rows, c))
        perm = list(rng.permutation(3))
        degs2 = [degs[p] for p in perm]
        rows2 = [perm.index(r) for r in rows]
        v2 = verdict(pair(degs2, rows2, c))
        assert (v1.stable, v1.slack) == (v2.stable, v2.slack)


# ---------------------------------------------------------------------------
# triples


def trip(deg1, deg2, support, c):
    return CurveFixture("triple_fixed_E2", (tuple(deg1), tuple(deg2)),
                        tuple(support), (c, 0))


def test_triple_rank_one_iso():
    for c, want in [(Fraction(1, 2), True), (Fraction(-1, 2), False)]:
        v = verdict(trip([0], [0], [(0, 0)], c))
        assert v.stable is want


def test_triple_phi_zero_never_stable(rng):
    for _ in range(10):
        deg1 = rng.integers(-2, 3, size=2).tolist()
        c = Fraction(int(rng.integers(-3, 4)), 2)
        v = verdict(trip(deg1, [0], [], c))
        assert not v.stable


def test_triple_alpha_slope_agreement_random(rng):
    """The two-sided slope verdict equals the alpha-slope formulation:
    mu_alpha of the subtriples with the second bundle whole or zero, alpha
    chosen so that mu_alpha(total) = c."""
    for _ in range(200):
        n1 = int(rng.integers(1, 4))
        deg1 = rng.integers(-3, 4, size=n1).tolist()
        deg2 = rng.integers(-2, 3, size=int(rng.integers(1, 3))).tolist()
        nsup = int(rng.integers(0, n1 + 1))
        support = [(int(i), 0) for i in rng.choice(n1, size=nsup, replace=False)]
        c = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        n2 = len(deg2)
        alpha = (c * (n1 + n2) - sum(deg1) - sum(deg2)) / n2
        rows = {i for i, _ in support}
        slacks = []
        for r in range(n1 + 1):
            for s in itertools.combinations(range(n1), r):
                d = sum(deg1[i] for i in s)
                if r > 0:
                    slacks.append(c * r - d)  # (E1', 0): mu < c
                if r < n1 and rows <= set(s):
                    slacks.append(c * (r + n2) - (d + sum(deg2) + alpha * n2))
        v = verdict(trip(deg1, deg2, support, c))
        assert (v.stable, v.slack) == (min(slacks) > 0, min(slacks))


# ---------------------------------------------------------------------------
# coherent systems


def cs(deg, k, support, c1, c2):
    return CurveFixture("coherent_system", (tuple(deg), (0,) * k),
                        tuple(support), (c1, c2))


def test_cs_constraint_violation_unsolvable():
    v = verdict(cs([1], 1, [(0, 0)], Fraction(1), Fraction(1, 2)))
    assert v.unsolvable and not v.stable


def test_cs_rank_one_exhaustive():
    # deg 1, k = 1: constraint 1 = c1 + c2; stable iff c2 < 0
    for c1, want in [(Fraction(2), True), (Fraction(1, 2), False)]:
        c2 = 1 - c1
        v = verdict(cs([1], 1, [(0, 0)], c1, c2))
        assert v.stable is want


def test_cs_case_identity(rng):
    """deg(E') - c1 rk' - c2 k' < 0 is equivalent to the slope form with
    alpha = -c2 when the constraint holds and sections are independent."""
    for _ in range(100):
        n = int(rng.integers(1, 4))
        deg = rng.integers(-2, 4, size=n).tolist()
        k = int(rng.integers(1, 3))
        c1 = Fraction(int(rng.integers(-4, 8)), int(rng.integers(1, 4)))
        c2 = (Fraction(sum(deg)) - c1 * n) / k
        alpha = -c2
        support = [(int(rng.integers(0, n)), j) for j in range(k)]
        f = cs(deg, k, support, c1, c2)
        sec_rows = {j: frozenset(i for i, jj in f.support if jj == j) for j in range(k)}
        for r in range(1, n + 1):
            for s in itertools.combinations(range(n), r):
                s = frozenset(s)
                kp = sum(1 for j in range(k) if sec_rows[j] <= s)
                d = sum(deg[i] for i in s)
                lhs = d - c1 * r - c2 * kp < 0
                rhs = Fraction(d, r) + alpha * Fraction(kp, r) < c1
                assert lhs == rhs


# ---------------------------------------------------------------------------
# twisted triples


def twisted(deg1, deg2, support, c1, c2, deg3=(0,)):
    return CurveFixture("twisted_triple", (tuple(deg1), tuple(deg2), tuple(deg3)),
                        tuple(support), (c1, c2, 0))


def test_twisted_sum_rule_required():
    v = verdict(twisted([1], [0], [(0, 0, 0)], Fraction(1), Fraction(1)))
    assert v.unsolvable


def test_twisted_full_pair_excluded():
    # with the sum rule holding, the (full, full) direction is excluded, so
    # a rank-(1,1) fixture with an isomorphism can be stable
    c1 = Fraction(3, 2)
    c2 = 1 - c1
    v = verdict(twisted([1], [0], [(0, 0, 0)], c1, c2))
    assert v.slack is not None


def test_twisted_incompatible_pairs_filtered():
    # (0, E2') pairs with nonzero map out of E2' are not enumerated
    c1 = Fraction(3, 2)
    c2 = 1 - c1
    v = verdict(twisted([1], [0], [(0, 0, 0)], c1, c2))
    witnesses = [v.witness] if v.witness else []
    for w in witnesses:
        assert not (w[1] == () and w[2] != ())


def test_twisted_rank1_E2_reduces_to_triple(rng):
    """With a trivial rank-1 twist the pair-enumerated verdict coincides
    with the fixed-second-bundle triple verdict at c = c1."""
    for _ in range(100):
        n1 = int(rng.integers(1, 4))
        deg1 = rng.integers(-2, 4, size=n1).tolist()
        d2 = int(rng.integers(-2, 3))
        c1 = Fraction(int(rng.integers(-4, 9)), int(rng.integers(1, 4)))
        c2 = Fraction(sum(deg1) + d2) - c1 * n1  # n2 = 1
        nsup = int(rng.integers(0, n1 + 1))
        rows = rng.choice(n1, size=nsup, replace=False)
        tw = twisted(deg1, [d2], [(int(i), 0, 0) for i in rows], c1, c2)
        tv = verdict(tw)
        tr = verdict(CurveFixture(
            "triple_fixed_E2", (tuple(deg1), (d2,)),
            tuple((int(i), 0) for i in rows), (c1, 0)))
        assert tv.stable == tr.stable


# ---------------------------------------------------------------------------
# higgs


def higgs(deg, support, cm=None):
    m = len(deg)
    c = Fraction(sum(deg), m) if cm is None else cm
    return CurveFixture("higgs", (tuple(deg), (0,)), tuple(support), (c, 0))


def test_higgs_theta_zero_split_unstable():
    v = verdict(higgs([1, -1], []))
    assert not v.stable
    assert v.witness == ("invariant", (0,))


def test_higgs_one_sided_component_stable():
    # component mapping the degree-1 summand into the degree-(-1) summand
    v = verdict(higgs([1, -1], [(1, 0)]))
    assert v.stable
    assert v.slack == Fraction(1)  # mu(E) - mu(L(-1)) = 0 - (-1)


def test_higgs_irreducible_vacuous():
    v = verdict(higgs([0, 0], [(0, 1), (1, 0)]))
    assert v.stable and v.slack is None


def test_higgs_wrong_cm_unsolvable():
    v = verdict(higgs([1, -1], [(1, 0)], cm=Fraction(1)))
    assert v.unsolvable


# ---------------------------------------------------------------------------
# reduction check and file format


def random_fixture(kind, rng):
    if kind == "pair_tensor":
        n = int(rng.integers(1, 4))
        degs = rng.integers(-2, 3, size=n).tolist()
        rows = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        c = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        return pair(degs, [int(i) for i in rows], c)
    if kind == "triple_fixed_E2":
        n = int(rng.integers(1, 3))
        degs = rng.integers(-2, 3, size=n).tolist()
        rows = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        c = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        return trip(degs, [0], [(int(i), 0) for i in rows], c)
    if kind == "coherent_system":
        n = int(rng.integers(1, 3))
        degs = rng.integers(0, 3, size=n).tolist()
        k = int(rng.integers(1, 3))
        c1 = Fraction(int(rng.integers(-4, 6)), int(rng.integers(1, 3)))
        c2 = (Fraction(sum(degs)) - c1 * n) / k
        support = [(int(rng.integers(0, n)), j) for j in range(k)]
        return cs(degs, k, support, c1, c2)
    if kind == "twisted_triple":
        n1 = int(rng.integers(1, 3))
        n2 = int(rng.integers(1, 3))
        deg1 = rng.integers(-2, 3, size=n1).tolist()
        deg2 = rng.integers(-2, 3, size=n2).tolist()
        c1 = Fraction(int(rng.integers(-4, 6)), int(rng.integers(1, 3)))
        c2 = (Fraction(sum(deg1) + sum(deg2)) - c1 * n1) / n2
        sup = [(int(rng.integers(0, n1)), int(rng.integers(0, n2)), 0)
               for _ in range(int(rng.integers(0, 3)))]
        return twisted(deg1, deg2, sup, c1, c2)
    m = int(rng.integers(2, 4))
    degs = rng.integers(-2, 3, size=m).tolist()
    sup = [(int(rng.integers(0, m)), int(rng.integers(0, m)))
           for _ in range(int(rng.integers(0, 4)))]
    return higgs(degs, sup)


@pytest.mark.parametrize("kind", ["pair_tensor", "triple_fixed_E2",
                                  "coherent_system", "twisted_triple", "higgs"])
def test_ssc_reduction_all_kinds(kind, rng):
    for _ in range(6):
        f = random_fixture(kind, rng)
        ok, v = ssc_reduction_equiv(f, trials=120, rng=rng)
        assert ok


@st.composite
def permuted_fixtures(draw):
    """A random fixture of any kind, and the same fixture with the summands
    of one gauge factor reordered: every support entry whose position is
    on that factor (both entries of an adjoint slot) follows its summand."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    f = random_fixture(kind, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    entry = KINDS[kind]
    g = draw(st.sampled_from(entry.gauge))
    perm = draw(st.permutations(range(len(f.degrees[g]))))  # new summand j is old perm[j]
    new_of = {old: new for new, old in enumerate(perm)}
    degrees = list(f.degrees)
    degrees[g] = tuple(f.degrees[g][i] for i in perm)
    support = tuple(tuple(new_of[i] if pos == g else i for (pos, _), i in zip(entry.positions, s))
                    for s in f.support)
    return f, CurveFixture(kind, tuple(degrees), support, f.c)


@given(permuted_fixtures())
def test_verdict_does_not_depend_on_summand_order(pair_of_fixtures):
    f, g = pair_of_fixtures
    v, w = verdict(f), verdict(g)
    assert (v.stable, v.slack, v.marginal, v.unsolvable, v.note) == (
        w.stable, w.slack, w.marginal, w.unsolvable, w.note), (f, g)


# ---------------------------------------------------------------------------
# the verdict engine against the per-kind verdict loops it replaced


def _reference_verdict(f):
    """Copy of the five per-kind verdict loops that ``verdict`` replaced.
    Returns the verdict and whether its minimum is attained only once."""
    d, c, n = f.degrees, f.c, len(f.degrees[0])

    def subsets(m):
        return [frozenset(s) for r in range(m + 1) for s in itertools.combinations(range(m), r)]

    def deg(row, s):
        return sum(row[i] for i in s)

    cands = []
    vacuous = "no admissible directions"
    if f.kind in ("pair_tensor", "triple_fixed_E2"):
        rows = {s[0] for s in f.support}
        for s in subsets(n):
            if s:
                cands.append((c[0] * len(s) - deg(d[0], s), ("sub", tuple(sorted(s)))))
            if len(s) < n and rows <= s:
                cands.append((sum(d[0]) - deg(d[0], s) - c[0] * (n - len(s)),
                              ("quotient", tuple(sorted(s)))))
    elif f.kind == "coherent_system":
        k = len(d[1])
        constraint = Fraction(sum(d[0])) - c[0] * n - c[1] * k
        if constraint != 0:
            return FixtureVerdict(stable=False, unsolvable=True, note=(
                f"constraint deg - c1 rk - c2 k = {constraint} != 0")), True
        sec_rows = {j: frozenset(i for i, jj in f.support if jj == j) for j in range(k)}
        for s in subsets(n):
            for t in subsets(k):
                if (not s and not t) or (len(s) == n and len(t) == k):
                    continue
                if all(sec_rows[j] <= s for j in t):
                    cands.append((c[0] * len(s) + c[1] * len(t) - deg(d[0], s),
                                  ("pair", tuple(sorted(s)), tuple(sorted(t)))))
    elif f.kind == "twisted_triple":
        n2 = len(d[1])
        rule = c[0] * n + c[1] * n2 - sum(d[0]) - sum(d[1])
        if rule != 0:
            return FixtureVerdict(stable=False, unsolvable=True, note=(
                f"sum rule n1 c1 + n2 c2 - deg = {rule} != 0")), True
        for s1 in subsets(n):
            for s2 in subsets(n2):
                if (not s1 and not s2) or (len(s1) == n and len(s2) == n2):
                    continue
                if all(j not in s2 or i in s1 for i, j, *_ in f.support):
                    cands.append((c[0] * len(s1) + c[1] * len(s2) - deg(d[0], s1) - deg(d[1], s2),
                                  ("pair", tuple(sorted(s1)), tuple(sorted(s2)))))
    else:
        mu = Fraction(sum(d[0]), n)
        if c[0] != mu:
            return FixtureVerdict(stable=False, unsolvable=True,
                                  note=f"cm != slope: obstruction {mu - c[0]}"), True
        vacuous = "no invariant proper summand subsheaf"
        for s in subsets(n):
            if 0 < len(s) < n and all(b not in s or a in s for a, b in f.support):
                cands.append((mu * len(s) - deg(d[0], s), ("invariant", tuple(sorted(s)))))
    if not cands:
        return FixtureVerdict(stable=True, note=vacuous), True
    slack, witness = min(cands, key=lambda sw: sw[0])
    return (FixtureVerdict(stable=slack > 0, slack=slack, witness=witness, marginal=slack == 0),
            sum(1 for s, _ in cands if s == slack) == 1)


def _reference_cases():
    rng = np.random.default_rng(0)
    for kind in KINDS:
        for _ in range(400):
            yield random_fixture(kind, rng)
    for kind in ("coherent_system", "twisted_triple", "higgs"):
        for _ in range(20):
            f = random_fixture(kind, rng)
            yield CurveFixture(kind, f.degrees, f.support, (f.c[0] + Fraction(1, 3),) + f.c[1:])
    yield higgs([0, 0], [(0, 1), (1, 0)])  # vacuous: no invariant proper subsheaf


def test_verdict_matches_the_per_kind_loops():
    """Same verdict on 400 random fixtures per kind and on unsolvable and
    vacuous ones; the same witness wherever the minimum is not a tie."""
    for f in _reference_cases():
        v = verdict(f)
        ref, unique = _reference_verdict(f)
        assert (v.stable, v.slack, v.marginal, v.unsolvable, v.note) == (
            ref.stable, ref.slack, ref.marginal, ref.unsolvable, ref.note), f
        if unique:
            assert v.witness == ref.witness, f


def _random_degrees(kind, rng):
    """Random degree rows; a row with no assembly parameter is the trivial
    line and a constant-mode row a trivial bundle."""
    entry = KINDS[kind]
    return tuple((0,) if name is None
                 else (0,) * int(rng.integers(1, 3)) if mode == "constant"
                 else tuple(int(x) for x in rng.integers(-2, 3, size=int(rng.integers(1, 3))))
                 for mode, name in zip(entry.factor_modes, entry.degree_params))


@pytest.mark.parametrize("kind", list(KINDS))
def test_induced_weight_matches_the_assembled_rep(kind, rng):
    """The exact weight the verdict reads from the table's slots equals
    reps.summand_weights on the RepSpec that assemble_example builds."""
    from gpwb.cli import _assembly_params
    from gpwb.flows import assemble_example
    from gpwb.reps import summand_weights

    entry = KINDS[kind]
    for _ in range(5):
        degs = _random_degrees(kind, rng)
        f = CurveFixture(kind, degs, (), (0,) * len(degs))
        st = assemble_example(kind, _assembly_params(f), lattice_n=4)
        w = {g: [int(x) for x in rng.integers(-3, 4, size=len(degs[g]))] for g in entry.gauge}
        got = summand_weights([w.get(g, [0] * len(r)) for g, r in enumerate(degs)], st.rep)
        rows = [range(len(degs[g])) for g, _ in entry.positions]
        for idx in itertools.product(*rows):
            assert induced_weight(kind, w, idx) == got[entry.slot_index(idx)]


def test_default_support_matches_the_per_kind_rules(rng):
    """The summands that carry the section when no support is given: those
    of non-negative degree, none for a Higgs field."""
    from gpwb.cli import _assembly_params
    from gpwb.flows import assemble_example

    rules = {
        "pair_tensor": lambda d: [(i, j) for i in range(len(d[0])) for j in range(len(d[1]))
                                  if d[0][i] + d[1][j] >= 0],
        "triple_fixed_E2": lambda d: [(i, j) for i in range(len(d[0])) for j in range(len(d[1]))
                                      if d[0][i] - d[1][j] >= 0],
        "coherent_system": lambda d: [(i, j) for i in range(len(d[0])) for j in range(len(d[1]))
                                      if d[0][i] >= 0],
        "twisted_triple": lambda d: [(i, j, k) for i in range(len(d[0])) for j in range(len(d[1]))
                                     for k in range(len(d[2])) if d[0][i] - d[1][j] - d[2][k] >= 0],
        "higgs": lambda d: [],
    }
    for kind, rule in rules.items():
        for _ in range(3):
            degs = _random_degrees(kind, rng)
            params = _assembly_params(CurveFixture(kind, degs, (), (0,) * len(degs)))
            del params["support"]
            st = assemble_example(kind, params, lattice_n=8, seed=int(rng.integers(1 << 31)))
            carried = np.any(st.section != 0, axis=(0, 1)).reshape(st.rep.shape)
            want = {KINDS[kind].slot_index(s) for s in rule(degs)}
            assert {tuple(int(i) for i in ix) for ix in np.argwhere(carried)} == want


def test_generator_weights_match_subset_slacks(rng):
    """f/g chain generators reproduce the subset-slope inequalities."""
    f = pair([2, 0, -1], support_rows=[1], c=Fraction(1, 2))
    for _ in range(10):
        chain = random_joint_chain(f, rng)
        for a, w in chain_generators(f, chain):
            steps = chain
            # f-type: alpha = (-1,...,-1,0...): weight = c rk(S) - deg(S)
            if a[0] == -1:
                i = max(k for k in range(len(a)) if a[k] == -1)
                s = steps[i][0]
                assert w == f.c[0] * len(s) - sum(f.degrees[0][j] for j in s)
            else:
                j = min(k for k in range(len(a)) if a[k] == 1)
                s = steps[j - 1][0] if j > 0 else frozenset()
                total = sum(f.degrees[0])
                w_expect = (Fraction(total) - sum(f.degrees[0][i] for i in s)) - f.c[0] * (
                    3 - len(s)
                )
                assert w == w_expect


def test_fixture_roundtrip(tmp_path, rng):
    for kind in ["pair_tensor", "higgs", "coherent_system"]:
        f = random_fixture(kind, rng)
        p = tmp_path / f"{kind}.json"
        save_fixture(p, f)
        g = load_fixture(p)
        assert f == g


def test_fixture_file_rejects_unknown_fields(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "higgs", "degrees": [[0]], "support": [], "c": ["0"], "x": 1}')
    with pytest.raises(ValueError):
        load_fixture(p)


@pytest.mark.parametrize("kind,degrees,c", [
    ("pair_tensor", ((1,),), (2, 0)),
    ("twisted_triple", ((1,), (0,)), (1, 0)),
    ("higgs", ((0, 0), (0,)), ()),
])
def test_fixture_arity_must_match_kind(kind, degrees, c):
    with pytest.raises(ValueError):
        CurveFixture(kind, degrees, (), c)


@pytest.mark.parametrize("kind,degrees,support", [
    ("pair_tensor", ((1,), (0,)), ((3, 0),)),
    ("pair_tensor", ((1,), (0,)), ((0,),)),
    ("coherent_system", ((1, 0), (0,)), ((0, 1),)),
    ("twisted_triple", ((1,), (0,), (0,)), ((0, 0),)),
    ("higgs", ((0, 0), (0,)), ((0, 2),)),
    ("higgs", ((0, 0), (0,)), ((-1, 0),)),
])
def test_support_must_index_the_summands(kind, degrees, support):
    c = (1,) * len(degrees)
    with pytest.raises(ValueError, match="support index"):
        CurveFixture(kind, degrees, support, c)


def test_constant_factor_degrees_must_be_zero():
    # the k sections of a coherent system span a trivial bundle
    with pytest.raises(ValueError, match="constant-mode"):
        CurveFixture("coherent_system", ((1,), (1,)), (), (1, 0))


@pytest.mark.parametrize("row", [(1, 2), (1,), (0, 0)])
def test_rows_without_an_assembly_parameter_are_the_trivial_line(row):
    # the higgs cotangent line is always assembled as the trivial line (0,)
    with pytest.raises(ValueError, match="trivial line"):
        CurveFixture("higgs", ((0, 0), row), (), (0, 0))
    assert CurveFixture("higgs", ((0, 0), (0,)), (), (0, 0)).degrees[1] == (0,)


def test_inconsistent_verdicts_raise():
    with pytest.raises(ValueError):
        FixtureVerdict(stable=True, slack=Fraction(-1))
    with pytest.raises(ValueError):
        StabilityVerdict(stable=False, slack=0.5)
    assert FixtureVerdict(stable=False, slack=Fraction(1), unsolvable=True).unsolvable
