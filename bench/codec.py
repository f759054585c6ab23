"""Matrices in kypcert's documented JSON form: bare reals or [re, im] pairs.

Only numpy is imported here, so the set-up probe can decode weights without
loading the reference code.
"""

import numpy as np


def as_complex(M):
    return np.atleast_2d(np.asarray(M, dtype=complex))


def encode(M):
    return [[z.real if z.imag == 0.0 else [z.real, z.imag] for z in row] for row in as_complex(M)]


def decode(rows, shape=None):
    M = np.array(
        [[complex(*v) if isinstance(v, list) else complex(v) for v in row] for row in rows],
        dtype=complex,
    )
    return M.reshape(shape) if shape is not None else M


def realization_dict(R):
    A, B, C, D = R
    return {
        "n": A.shape[0], "m": D.shape[1], "p": D.shape[0],
        "A": encode(A), "B": encode(B), "C": encode(C), "D": encode(D),
    }


def realization_from_dict(d):
    n, m, p = d["n"], d["m"], d["p"]
    return (
        decode(d["A"], (n, n)), decode(d["B"], (n, m)),
        decode(d["C"], (p, n)), decode(d["D"], (p, m)),
    )
