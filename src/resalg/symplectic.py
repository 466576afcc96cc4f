"""Finite-dimensional symplectic phase spaces and their bilinear pairing.

A space is a real vector space of even dimension 2n together with an
antisymmetric form sigma.  In the standard form the coordinates pair up as
(Q_1, P_1, ..., Q_n, P_n), i.e. sigma is block diagonal with 2x2 blocks
[[0, 1], [-1, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# relative singular-value cutoff below which the form counts as rank deficient
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SymplecticSpace:
    """Even-dimensional real space with an exactly antisymmetric form."""

    form: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.array(self.form, dtype=float)
        mat.setflags(write=False)
        object.__setattr__(self, "form", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("form must be a square matrix")
        if mat.shape[0] == 0 or mat.shape[0] % 2 != 0:
            raise ValueError("dimension must be a positive even integer")
        # antisymmetry is an invariant of the stored entries, not a tolerance check
        if not np.array_equal(mat, -mat.T):
            raise ValueError("form must be exactly antisymmetric")

    @property
    def dim(self) -> int:
        return self.form.shape[0]

    @property
    def modes(self) -> int:
        return self.form.shape[0] // 2

    def to_config(self) -> dict:
        if self.is_standard():
            return {"n": self.modes}
        return {"form": self.form.tolist()}

    def is_standard(self) -> bool:
        return np.array_equal(self.form, standard_form(self.modes))


def standard_form(n: int) -> np.ndarray:
    """Block-diagonal form with n copies of [[0, 1], [-1, 0]]."""
    if n < 1:
        raise ValueError("need at least one mode")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n, 2 * n))
    for k in range(n):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return out


def standard_space(n: int) -> SymplecticSpace:
    return SymplecticSpace(standard_form(n))


def space_from_config(config: dict) -> SymplecticSpace:
    """Build a space from {"n": int} or {"form": [[...]]}."""
    if "n" in config and "form" in config:
        raise ValueError("give either 'n' or 'form', not both")
    if "n" in config:
        return standard_space(int(config["n"]))
    if "form" in config:
        return SymplecticSpace(np.array(config["form"], dtype=float))
    raise ValueError("space config needs 'n' or 'form'")


def as_vector(space: SymplecticSpace, f) -> np.ndarray:
    vec = np.asarray(f, dtype=float)
    if vec.shape != (space.dim,):
        raise ValueError(
            f"vector has shape {vec.shape}, expected ({space.dim},)"
        )
    return vec


def pair(space: SymplecticSpace, f, g) -> float:
    """Evaluate sigma(f, g) = f^T . form . g."""
    fv = as_vector(space, f)
    gv = as_vector(space, g)
    return float(fv @ space.form @ gv)


def is_nondegenerate(space: SymplecticSpace) -> bool:
    """Full-rank test via singular values, relative to the largest one."""
    sv = np.linalg.svd(space.form, compute_uv=False)
    if sv[0] == 0.0:
        return False
    return bool(sv[-1] > RANK_RTOL * sv[0])
