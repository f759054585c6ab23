"""Checks of every job output against the reference code and the inputs' truth.

``check`` returns None for a correct output and a one-line reason otherwise.
No check compares against a stored copy of kypcert's own output.
"""

import json
import os

import numpy as np

import reference as ref
from codec import as_complex, decode, realization_from_dict

# Extremal weights come from sweeps over kypcert's documented default grid
# (0.03 decade spacing), so they may sit above the exact minimum over the
# axis. On the pool's well-damped realizations the gap measured at most
# 6.8e-4 (632 weights, seeds 1-79); a wrong answer misses by far more.
WEIGHT_TOL = 5e-3
# Exact comparisons: closed forms, bracket lower ends, Gramians.
EXACT_TOL = 1e-6
SLACK_FLOOR = -1e-6


def load_references(manifest, indir):
    """The reference's own copy of every input, read with its own decoder."""
    refs = {}
    for stem, name in manifest["files"].items():
        with open(os.path.join(indir, name)) as fh:
            refs[stem] = realization_from_dict(json.load(fh))
    return refs


def arrays(Rk):
    return tuple(as_complex(M) for M in (Rk.A, Rk.B, Rk.C, Rk.D))


def bracket(value, empty, truth):
    """A weight inside [certified lower bound, witness upper bound]."""
    lower, upper = truth["lower"], truth["upper"]
    if upper < 0.0:
        if value != 0.0 or not empty:
            return f"weight {value!r} for a function that is not positive real at {truth['witness']!r}"
        return None
    if not lower - EXACT_TOL <= value <= upper + WEIGHT_TOL:
        return f"weight {value!r} outside [{lower!r}, {upper!r}]"
    if lower > EXACT_TOL and empty:
        return "empty flag set although a positive weight is certified"
    return None


def check_certificate(R, cert, weight):
    """A certificate for ``weight`` (scalar or matrix) that the reference verifies."""
    if cert is None:
        return "no certificate returned for a certified member"
    T = _weight_matrix(weight, R)
    ok, slack = ref.certificate_ok(R, cert.H, T, SLACK_FLOOR)
    if not ok:
        return f"certificate does not verify: slack {slack!r}"
    if not np.allclose(as_complex(cert.T), T, atol=1e-12):
        return "certificate carries another weight"
    return None


def _inverse(R, cert, inv):
    R_hat, _ = inv
    arr = np.block([[R[0], R[1]], [R[2], R[3]]])
    Rh = arrays(R_hat)
    arr_hat = np.block([[Rh[0], Rh[1]], [Rh[2], Rh[3]]])
    if np.abs(arr_hat @ arr - np.eye(arr.shape[0])).max() > 1e-8 * np.linalg.cond(arr):
        return "inverse realization is not the array inverse"
    ok, slack = ref.certificate_ok(Rh, cert.H, as_complex(cert.T), SLACK_FLOOR)
    return None if ok else f"inverse not certified by the same (H, T): slack {slack!r}"


def _pipeline(spec, out, R):
    weights = (spec["beta"] * np.eye(R[3].shape[0]), decode(spec["T"]))
    for cert, inv, T in zip(out["certs"], out["inverses"], weights):
        err = check_certificate(R, cert, T) or _inverse(R, cert, inv)
        if err:
            return err
    bal, red = out["balanced"], out["reduced"]
    sigma = np.asarray(bal.sigma)
    Rb = arrays(bal.realization)
    Hc, Ho = ref.gramians(Rb)
    scale = 1.0 + sigma[0]
    if max(np.abs(Hc - np.diag(sigma)).max(), np.abs(Ho - np.diag(sigma)).max()) > EXACT_TOL * scale:
        return "balanced Gramians differ from diag(sigma)"
    if not np.allclose(sigma, ref.hankel_singular_values(R), rtol=1e-6, atol=1e-12 * scale):
        return "Hankel singular values differ from the reference"
    order = spec["order"]
    if red.n != order:
        return f"truncated to {red.n} states, asked for {order}"
    bound = 2.0 * sigma[order:].sum()
    gap = ref.max_gap_norm(R, arrays(red))
    if gap > bound * (1.0 + 1e-6) + 1e-9 * scale:
        return f"truncation error {gap!r} above 2 sum(sigma_tail) = {bound!r}"
    return None


def check(job, out, refs):
    """None when ``out`` is right for ``job``; otherwise the reason."""
    spec = job.spec
    kind = spec["kind"]
    truth = spec.get("truth", {})
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    R = refs.get(spec.get("file"))
    if kind == "sweep":
        if out != truth["member"]:
            where = "" if truth["member"] else f"; slack {truth['witness_slack']!r} at {truth['witness']!r}"
            return f"verdict member={out} for a {spec['cls']} {'member' if truth['member'] else 'non-member'}{where}"
        return None
    if kind in ("beta_max", "t_ray_max"):
        return bracket(*out, truth)
    if kind == "sp_margin":
        return bracket(out, out == 0.0, truth)
    if kind == "rlc_beta":
        value, _ = out
        if abs(value - truth["beta"]) > EXACT_TOL:
            return f"RLC weight {value!r}, closed form {truth['beta']!r}"
        return None
    if kind == "pipeline":
        return _pipeline(spec, out, R)
    if kind == "certify":
        if truth["member"]:
            return check_certificate(R, out, spec["weight"])
        if out is not None:
            return (f"certificate returned above the witness bound "
                    f"(slack {truth['witness_slack']!r} at {truth['witness']!r})")
        return None
    raise ValueError(f"unknown job kind {kind!r}")


def _weight_matrix(w, R):
    if isinstance(w, float):
        return w * np.eye(R[3].shape[0])
    return as_complex(w) if isinstance(w, np.ndarray) else decode(w)
