"""Property tests of the slot kernel over random slot layouts.

Layouts have 1-3 slots with standard, dual, adjoint or trivial actions on
factors of dimension 1-3; stacked inputs carry leading shapes (), (3,) or
(2, 2).  Examples are derandomized (the hypothesis profile of conftest.py),
so the suite stays deterministic.
"""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from gpwb.groups import GroupElement, ProductGroupSpec
from gpwb.reps import (ADJOINT, DUAL, STANDARD, TRIVIAL, RepSpec, Slot, act, apply_slots,
                       slot_matrices, slot_operator)

LEADS = [(), (3,), (2, 2)]


@st.composite
def layouts(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    slots = []
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from([STANDARD, DUAL, ADJOINT, TRIVIAL]))
        if action == TRIVIAL:
            slots.append(Slot(draw(st.integers(1, 3)), TRIVIAL))
            continue
        f = draw(st.integers(0, len(dims) - 1))
        slots.append(Slot(dims[f] ** (2 if action == ADJOINT else 1), action, f))
    return RepSpec(ProductGroupSpec(tuple(dims)), tuple(slots))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _invertible(rng, shape):
    """exp of a random matrix stack: invertible, condition number below e^4."""
    a = _complex(rng, shape)
    return expm(a / np.linalg.norm(a, axis=(-2, -1), keepdims=True))


def _scale(mats):
    """Product of the slot-matrix norms: bounds the operator norm on V."""
    return float(np.prod([np.linalg.norm(m) for m in mats if m is not None]))


@given(rep=layouts(), lead=st.sampled_from(LEADS), generator=st.booleans(),
       acting=st.lists(st.booleans(), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_apply_slots_matches_the_kronecker_fold(rep, lead, generator, acting, seed):
    rng = np.random.default_rng(seed)
    blocks = [(_complex if generator else _invertible)(rng, lead + (n, n)) if on else None
              for n, on in zip(rep.spec.factor_dims, acting)]
    mats = slot_matrices(blocks, rep, generator=generator)
    x = _complex(rng, lead + (rep.dim,))
    got = apply_slots(mats, x, rep)
    want = (slot_operator(mats, rep, lead) @ x[..., None])[..., 0]
    assert got.shape == x.shape
    assert np.linalg.norm(got - want) <= 1e-12 * _scale(mats) * np.linalg.norm(x)


@given(rep=layouts(), seed=st.integers(0, 2**32 - 1))
def test_act_is_a_group_action(rep, seed):
    rng = np.random.default_rng(seed)
    g, h = (GroupElement(tuple(_invertible(rng, (n, n)) for n in rep.spec.factor_dims))
            for _ in range(2))
    x = _complex(rng, rep.dim)
    lhs = act(g, act(h, x, rep), rep)
    rhs = act(g.compose(h), x, rep)
    scale = _scale(slot_matrices(g.blocks, rep)) * _scale(slot_matrices(h.blocks, rep))
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale * np.linalg.norm(x)
