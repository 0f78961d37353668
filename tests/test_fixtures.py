import itertools
from fractions import Fraction

import numpy as np
import pytest

from gpwb.fixtures import (
    CurveFixture,
    FixtureVerdict,
    chain_generators,
    coherent_system_stable,
    deg_alpha,
    higgs_stable,
    load_fixture,
    p_indices,
    pair_stable,
    random_joint_chain,
    save_fixture,
    ssc_reduction_equiv,
    triple_stable,
    twisted_triple_stable,
)
from gpwb.kempf_ness import StabilityVerdict


def pair(degs, support_rows, c, deg2=(0,)):
    support = tuple((i, 0) for i in support_rows)
    return CurveFixture("pair_tensor", (tuple(degs), tuple(deg2)), support, (c, 0))


# ---------------------------------------------------------------------------
# deg_alpha / p_indices


def test_deg_alpha_single_step():
    assert deg_alpha([1], [(3, 2)], 1) == Fraction(1)  # deg - c rk = 3 - 2


def test_deg_alpha_two_step_plugin():
    # sub (deg, rk) = (2, 1) inside (3, 2), c = 1, alpha = (0, 1)
    out = deg_alpha([0, 1], [(2, 1), (3, 2)], 1)
    assert out == Fraction(0)


def test_deg_alpha_linear(rng):
    chain = [(2, 1), (5, 3)]
    for _ in range(30):
        a = sorted(rng.integers(-5, 5, size=2).tolist())
        b = sorted(rng.integers(-5, 5, size=2).tolist())
        x, y = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        combo = [x * p + y * q for p, q in zip(a, b)]
        lhs = deg_alpha(sorted(combo), chain, Fraction(1, 2)) if combo == sorted(combo) else None
        if lhs is None:
            continue
        rhs = x * deg_alpha(a, chain, Fraction(1, 2)) + y * deg_alpha(b, chain, Fraction(1, 2))
        assert lhs == rhs


def test_p_indices_basic():
    # all weights positive: p_alpha = 0
    assert p_indices([1, 2], [(0,), (0, 1)], {0})[0] == 0
    # support in the first summand of the chain
    pa, pc = p_indices([-1, 0], [(0,), (0, 1)], {0})
    assert (pa, pc) == (2, 1)
    # empty support: p_chi = 1 (contained in every step)
    assert p_indices([-1, 0], [(0,), (0, 1)], set())[1] == 1


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
    v = pair_stable(f)
    assert not v.stable
    assert v.witness == ("sub", (0,))
    assert v.slack == Fraction(-1)


def test_pair_rank_one_threshold():
    for c, want in [(Fraction(3, 2), True), (Fraction(1, 2), False), (1, False)]:
        f = pair([1], support_rows=[0], c=c)
        v = pair_stable(f)
        assert v.stable is want
        if c == 1:
            assert v.marginal


def test_pair_large_c_unstable_when_support_proper():
    f = pair([1, 1], support_rows=[0], c=100)
    v = pair_stable(f)
    assert not v.stable  # quotient condition mu(V1/V') > c fails for large c


def test_pair_phi_zero_never_stable(rng):
    for _ in range(10):
        degs = rng.integers(-3, 4, size=2).tolist()
        c = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        v = pair_stable(pair(degs, support_rows=[], c=c))
        assert not v.stable


def test_pair_verdict_summand_permutation_invariant(rng):
    for _ in range(20):
        degs = rng.integers(-2, 3, size=3).tolist()
        rows = [int(i) for i in rng.choice(3, size=2, replace=False)]
        c = Fraction(int(rng.integers(-3, 4)), 2)
        v1 = pair_stable(pair(degs, rows, c))
        perm = list(rng.permutation(3))
        degs2 = [degs[p] for p in perm]
        rows2 = [perm.index(r) for r in rows]
        v2 = pair_stable(pair(degs2, rows2, c))
        assert (v1.stable, v1.slack) == (v2.stable, v2.slack)


# ---------------------------------------------------------------------------
# triples


def trip(deg1, deg2, support, c):
    return CurveFixture("triple_fixed_E2", (tuple(deg1), tuple(deg2)),
                        tuple(support), (c, 0))


def test_triple_rank_one_iso():
    for c, want in [(Fraction(1, 2), True), (Fraction(-1, 2), False)]:
        v = triple_stable(trip([0], [0], [(0, 0)], c))
        assert v.stable is want


def test_triple_phi_zero_never_stable(rng):
    for _ in range(10):
        deg1 = rng.integers(-2, 3, size=2).tolist()
        c = Fraction(int(rng.integers(-3, 4)), 2)
        v = triple_stable(trip(deg1, [0], [], c))
        assert not v.stable


def test_triple_alpha_slope_agreement_random(rng):
    # the two formulations are asserted equal inside triple_stable
    for _ in range(200):
        n1 = int(rng.integers(1, 4))
        deg1 = rng.integers(-3, 4, size=n1).tolist()
        deg2 = rng.integers(-2, 3, size=int(rng.integers(1, 3))).tolist()
        nsup = int(rng.integers(0, n1 + 1))
        support = [(int(i), 0) for i in rng.choice(n1, size=nsup, replace=False)]
        c = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        triple_stable(trip(deg1, deg2, support, c))


# ---------------------------------------------------------------------------
# coherent systems


def cs(deg, k, support, c1, c2):
    return CurveFixture("coherent_system", (tuple(deg), (0,) * k),
                        tuple(support), (c1, c2))


def test_cs_constraint_violation_unsolvable():
    v = coherent_system_stable(cs([1], 1, [(0, 0)], Fraction(1), Fraction(1, 2)))
    assert v.unsolvable and not v.stable


def test_cs_rank_one_exhaustive():
    # deg 1, k = 1: constraint 1 = c1 + c2; stable iff c2 < 0
    for c1, want in [(Fraction(2), True), (Fraction(1, 2), False)]:
        c2 = 1 - c1
        v = coherent_system_stable(cs([1], 1, [(0, 0)], c1, c2))
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
    v = twisted_triple_stable(twisted([1], [0], [(0, 0, 0)], Fraction(1), Fraction(1)))
    assert v.unsolvable


def test_twisted_full_pair_excluded():
    # with the sum rule holding, the (full, full) direction is excluded, so
    # a rank-(1,1) fixture with an isomorphism can be stable
    c1 = Fraction(3, 2)
    c2 = 1 - c1
    v = twisted_triple_stable(twisted([1], [0], [(0, 0, 0)], c1, c2))
    assert v.slack is not None


def test_twisted_incompatible_pairs_filtered():
    # (0, E2') pairs with nonzero map out of E2' are not enumerated
    c1 = Fraction(3, 2)
    c2 = 1 - c1
    v = twisted_triple_stable(twisted([1], [0], [(0, 0, 0)], c1, c2))
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
        tv = twisted_triple_stable(tw)
        tr = triple_stable(CurveFixture(
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
    v = higgs_stable(higgs([1, -1], []))
    assert not v.stable
    assert v.witness == ("invariant", (0,))


def test_higgs_one_sided_component_stable():
    # component mapping the degree-1 summand into the degree-(-1) summand
    v = higgs_stable(higgs([1, -1], [(1, 0)]))
    assert v.stable
    assert v.slack == Fraction(1)  # mu(E) - mu(L(-1)) = 0 - (-1)


def test_higgs_irreducible_vacuous():
    v = higgs_stable(higgs([0, 0], [(0, 1), (1, 0)]))
    assert v.stable and v.slack is None


def test_higgs_wrong_cm_unsolvable():
    v = higgs_stable(higgs([1, -1], [(1, 0)], cm=Fraction(1)))
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


def test_inconsistent_verdicts_raise():
    with pytest.raises(ValueError):
        FixtureVerdict(stable=True, slack=Fraction(-1))
    with pytest.raises(ValueError):
        StabilityVerdict(stable=False, slack=0.5)
    assert FixtureVerdict(stable=False, slack=Fraction(1), unsolvable=True).unsolvable
