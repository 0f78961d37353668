"""Product unitary groups, their Lie algebras and subgroup projections.

The configuration group throughout the package is a finite product
K = U(n_1) x ... x U(n_p) together with its complexification
G = GL(n_1) x ... x GL(n_p).  Elements are stored blockwise, one complex
matrix per factor.  The trace pairing uses the block-diagonal sum of the
standard representations, so ``<u, v> = sum_i Tr(u_i v_i^dagger)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

SKEW_TOL = 1e-12
UNITARY_TOL = 1e-10  # defect of Uᴴ U - I: norm of a block, largest entry of a link field

FULL = "full"
FROZEN = "frozen"
CONSTANT = "constant"


class DimensionMismatchError(ValueError):
    """Blockwise dimension conflict; carries the offending factor index."""

    def __init__(self, factor, expected, got):
        self.factor = factor
        super().__init__(
            f"factor {factor}: expected block of size {expected}, got {got}"
        )


@dataclass(frozen=True)
class ProductGroupSpec:
    """A product of unitary groups U(n_1) x ... x U(n_p).

    The auxiliary representation used for the trace pairing is the direct
    sum of the standard representations of the factors; it is faithful by
    construction and fixes the overall scale of the inner product.
    """

    factor_dims: tuple

    def __post_init__(self):
        dims = tuple(int(n) for n in self.factor_dims)
        if len(dims) < 1 or any(n < 1 for n in dims):
            raise ValueError(f"factor dims must be positive, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def num_factors(self):
        return len(self.factor_dims)

    def check_blocks(self, blocks):
        if len(blocks) != self.num_factors:
            raise DimensionMismatchError(len(blocks), self.num_factors, "factor count")
        for i, (b, n) in enumerate(zip(blocks, self.factor_dims)):
            if b.shape != (n, n):
                raise DimensionMismatchError(i, (n, n), b.shape)


@dataclass(frozen=True)
class AlgebraElement:
    """Blockwise Lie-algebra element.

    flavor "compact" asserts each block is skew-Hermitian (an element of
    u(n_i)); flavor "general" places no constraint (gl(n_i)).
    """

    blocks: tuple
    flavor: str = "compact"

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=complex) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if self.flavor not in ("compact", "general"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor == "compact":
            for i, b in enumerate(blocks):
                dev = np.linalg.norm(b + b.conj().T)
                if dev >= SKEW_TOL * (1.0 + np.linalg.norm(b)):
                    raise ValueError(f"block {i} is not skew-Hermitian (dev {dev:.2e})")

    @property
    def dims(self):
        return tuple(b.shape[0] for b in self.blocks)

    def __add__(self, other):
        flavor = "compact" if self.flavor == other.flavor == "compact" else "general"
        return AlgebraElement(
            tuple(a + b for a, b in zip(self.blocks, other.blocks)), flavor
        )

    def __sub__(self, other):
        flavor = "compact" if self.flavor == other.flavor == "compact" else "general"
        return AlgebraElement(
            tuple(a - b for a, b in zip(self.blocks, other.blocks)), flavor
        )

    def __mul__(self, t):
        flavor = self.flavor if np.isrealobj(np.asarray(t)) else "general"
        return AlgebraElement(tuple(t * b for b in self.blocks), flavor)

    __rmul__ = __mul__

    def norm(self):
        return float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in self.blocks)))

    @staticmethod
    def zero(spec: ProductGroupSpec):
        return AlgebraElement(tuple(np.zeros((n, n), complex) for n in spec.factor_dims))


@dataclass(frozen=True)
class GroupElement:
    """Blockwise group element; flavor "unitary" or "complexified"."""

    blocks: tuple
    flavor: str = "complexified"

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=complex) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if self.flavor not in ("unitary", "complexified"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor == "unitary":
            for i, b in enumerate(blocks):
                dev = np.linalg.norm(b.conj().T @ b - np.eye(b.shape[0]))
                if dev >= UNITARY_TOL:
                    raise ValueError(f"block {i} is not unitary (dev {dev:.2e})")

    @property
    def dims(self):
        return tuple(b.shape[0] for b in self.blocks)

    def compose(self, other):
        """Group product self * other, blockwise."""
        flavor = "unitary" if self.flavor == other.flavor == "unitary" else "complexified"
        return GroupElement(
            tuple(a @ b for a, b in zip(self.blocks, other.blocks)), flavor
        )

    @staticmethod
    def identity(spec: ProductGroupSpec, flavor="unitary"):
        return GroupElement(tuple(np.eye(n, dtype=complex) for n in spec.factor_dims), flavor)


@dataclass(frozen=True)
class SubgroupSetting:
    """Which factors are gauge-varying, frozen, or constant-only, plus the
    central shift.

    ``modes[i]`` is one of "full", "frozen", "constant".  ``central_scalars``
    holds the real numbers c_i; the central element has block -i*c_i*I on
    non-frozen factors and 0 on frozen ones.
    """

    spec: ProductGroupSpec
    modes: tuple
    central_scalars: tuple = None

    def __post_init__(self):
        modes = tuple(self.modes)
        if len(modes) != self.spec.num_factors:
            raise ValueError("one mode per factor required")
        for m in modes:
            if m not in (FULL, FROZEN, CONSTANT):
                raise ValueError(f"unknown factor mode {m!r}")
        if all(m == FROZEN for m in modes):
            raise ValueError("at least one factor must not be frozen")
        scalars = self.central_scalars
        if scalars is None:
            scalars = (0.0,) * self.spec.num_factors
        scalars = tuple(float(c) for c in scalars)
        for i, (m, c) in enumerate(zip(modes, scalars)):
            if m == FROZEN and c != 0.0:
                raise ValueError(f"frozen factor {i} must carry zero central shift")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "central_scalars", scalars)

    @property
    def central_shift(self) -> AlgebraElement:
        blocks = []
        for n, m, c in zip(self.spec.factor_dims, self.modes, self.central_scalars):
            blocks.append(-1j * c * np.eye(n) if m != FROZEN else np.zeros((n, n), complex))
        return AlgebraElement(tuple(blocks), "compact")

    def unfrozen(self):
        return [i for i, m in enumerate(self.modes) if m != FROZEN]


def inner_product(u: AlgebraElement, v: AlgebraElement, spec: ProductGroupSpec) -> float:
    """Trace pairing sum_i Tr(u_i v_i^dagger) of the auxiliary representation.

    Real-valued; symmetric and positive-definite on compact-flavor elements.
    """
    spec.check_blocks(u.blocks)
    spec.check_blocks(v.blocks)
    acc = 0.0 + 0.0j
    for a, b in zip(u.blocks, v.blocks):
        acc += np.trace(a @ b.conj().T)
    return float(acc.real)


def project_subalgebra(s: AlgebraElement, setting: SubgroupSetting) -> AlgebraElement:
    """Orthogonal projection onto the subalgebra: zero the frozen blocks.

    Constant-mode factors are unchanged at this pointwise level; averaging a
    field over the base is the caller's job.  Idempotent and self-adjoint
    for the trace pairing.
    """
    setting.spec.check_blocks(s.blocks)
    out = []
    for b, m in zip(s.blocks, setting.modes):
        out.append(np.zeros_like(b) if m == FROZEN else b)
    return AlgebraElement(tuple(out), s.flavor)


def exp_element(s: AlgebraElement, t: float = 1.0) -> GroupElement:
    """Blockwise matrix exponential exp(t*s)."""
    blocks = tuple(expm(t * b) for b in s.blocks)
    flavor = "unitary" if (s.flavor == "compact" and np.isreal(t)) else "complexified"
    return GroupElement(blocks, flavor)


def cartan_involution(g: GroupElement) -> GroupElement:
    """Blockwise (g^dagger)^{-1}; fixes the unitary elements."""
    blocks = []
    for i, b in enumerate(g.blocks):
        try:
            blocks.append(np.linalg.inv(b.conj().T))
        except np.linalg.LinAlgError as err:
            raise ValueError(f"block {i} is singular") from err
    return GroupElement(tuple(blocks), g.flavor)


def random_compact(spec: ProductGroupSpec, rng, scale=1.0) -> AlgebraElement:
    """Random skew-Hermitian element, one Gaussian block per factor."""
    blocks = []
    for n in spec.factor_dims:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(scale * 0.5 * (a - a.conj().T))
    return AlgebraElement(tuple(blocks), "compact")


def haar_unitary(rng, n: int, lead=()):
    """Haar-random n x n unitaries of shape lead + (n, n): the Q of a complex
    Gaussian's QR with the phases of the diagonal of R moved into it."""
    shape = tuple(lead) + (n, n)
    q, r = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(spec: ProductGroupSpec, rng) -> GroupElement:
    return GroupElement(tuple(haar_unitary(rng, n) for n in spec.factor_dims), "unitary")
