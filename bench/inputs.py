"""Seeded inputs and their ground truth for the benchmark workloads.

    python3 bench/inputs.py --workload screen --seed 1 --out bench/out/inputs

writes one realization file per input in kypcert's documented JSON form, and
a ``manifest.json`` holding the job list, the warm-up job, the cold-call
command and the truth for every job. The truth comes from construction and
from ``reference.py``; nothing here imports kypcert.

Every realization of the pool is internally passive: A + A* < 0, C = B* and
D + D* > 0, so H = I certifies positivity and certifies HP(T) up to the
weight ``reference.identity_certified_weight`` finds. The spectral abscissa
of A is scaled to exactly -1, which fixes the bisection range of sp_margin.
"""

import argparse
import json
import os

import numpy as np

import reference as ref
from codec import encode, realization_dict

# (n, m) size classes, smallest to largest, as in the ROADMAP baseline table.
SIZES = [(1, 1), (4, 2), (10, 3), (20, 4)]
# Grid indices of kypcert's documented default sweep (0 plus 401 log-spaced
# points in [1e-6, 1e6]) between which the resonance family is tuned.
RESONANCE_GRID_INDEX = (100, 175, 250, 325)
RESONANCE_ZETA = 1e-4
# Share of the reference axis samples on which a constructed non-member
# violates its class, and the relative depth of the violation there.
VIOLATION_QUANTILE = 0.3
VIOLATION_DEPTH = 0.05


class Rejected(Exception):
    """A drawn realization misses a property its job needs; draw again."""


def _randn(rng, shape, cplx):
    X = rng.standard_normal(shape)
    if cplx:
        X = X + 1j * rng.standard_normal(shape)
    return X


def passive_realization(rng, n, m, cplx):
    """Internally passive, well damped, spectral abscissa exactly -1."""
    G = _randn(rng, (n, n), cplx)
    K = 0.35 * (G - G.conj().T)
    W = _randn(rng, (n, n), cplx)
    A = K - (W @ W.conj().T / n + 0.5 * np.eye(n))
    A = A / -np.linalg.eigvals(A).real.max()
    B = _randn(rng, (n, m), cplx) / np.sqrt(m)
    M = _randn(rng, (m, m), cplx)
    N = _randn(rng, (m, m), cplx)
    D = 0.5 * np.eye(m) + 0.1 * M @ M.conj().T / m + 0.05 * (N - N.conj().T)
    return tuple(np.asarray(X, dtype=complex) for X in (A, B, B.conj().T, D))


def weight_direction(rng, m, cplx):
    """Hermitian direction with eigenvalues in [0.4, 1] and largest exactly 1."""
    if m == 1:
        return np.eye(1, dtype=complex)
    Q, _ = np.linalg.qr(_randn(rng, (m, m), cplx))
    w = np.concatenate([[1.0], rng.uniform(0.4, 1.0, m - 1)])
    T = Q @ np.diag(w) @ Q.conj().T
    return 0.5 * (T + T.conj().T)


def _slack_min(response, tag, T=None):
    """(smallest reference slack over the axis, frequency where it sits)."""
    om, vals = response
    s = ref.min_eig(ref.class_slack(vals, tag, T))
    k = int(np.argmin(s))
    return float(s[k]), float(om[k])


def _violating_level(values, ceiling=None):
    """A level above the VIOLATION_QUANTILE of ``values``.

    It lies above by VIOLATION_DEPTH of the gap to ``ceiling``, or of the
    quantile itself when there is no ceiling.
    """
    q = float(np.quantile(values, VIOLATION_QUANTILE))
    return q + VIOLATION_DEPTH * (abs(q) if ceiling is None else ceiling - q)


class Pool:
    """Collects realization files, jobs and their truth for one workload."""

    def __init__(self, out):
        self.out = out
        self.files = {}
        self.jobs = []

    def add_file(self, R, stem):
        name = f"{stem}.json"
        with open(os.path.join(self.out, name), "w") as fh:
            json.dump(realization_dict(R), fh)
        self.files[stem] = name
        return stem

    def add_job(self, kind, size, known_fault=False, **spec):
        job = {"id": f"{kind}-{len(self.jobs)}", "kind": kind, "size": list(size),
               "known_fault": known_fault}
        job.update(spec)
        self.jobs.append(job)
        return job


def _draw(rng, n, m, cplx, need, attempts=200):
    for _ in range(attempts):
        try:
            return need(rng, n, m, cplx)
        except Rejected:
            continue
    raise RuntimeError(f"no realization of size ({n}, {m}) met its constraints")


def _screen_base(rng, n, m, cplx):
    """A passive F with the scalar and matrix weights the screen jobs use."""
    R = passive_realization(rng, n, m, cplx)
    eye = np.eye(m, dtype=complex)
    om, vals = ref.axis_response(R)
    beta_I = ref.identity_certified_weight(R, eye)
    if beta_I < 0.02:
        raise Rejected
    b = ref.pencil_bound(vals, eye)
    beta_out = _violating_level(b, ceiling=1.0)
    T_dir = weight_direction(rng, m, cplx)
    t_I = ref.identity_certified_weight(R, T_dir)
    t = ref.pencil_bound(vals, T_dir)
    if t_I < 0.02 or np.quantile(t, VIOLATION_QUANTILE) >= 0.95:
        raise Rejected
    t_out = _violating_level(t, ceiling=1.0)
    # P non-member: F - c I, negative real part on the violating share
    c = 0.5 * _violating_level(ref.min_eig(ref.class_slack(vals, "P")))
    if c >= 0.95:
        raise Rejected
    A, B, C, D = R
    R_out = (A, B, C, D - c * eye)
    return R, R_out, 0.5 * beta_I, beta_out, T_dir, 0.5 * t_I, t_out


def resonance(k):
    """F = 1 - 2 (2 zeta w0 s) / (s^2 + 2 zeta w0 s + w0^2), Re F(j w0) = -1."""
    g = np.logspace(-6.0, 6.0, 401)
    w0 = float(np.sqrt(g[k] * g[k + 1]))
    z = RESONANCE_ZETA
    R = (
        np.array([[0.0, 1.0], [-w0 * w0, -2.0 * z * w0]], dtype=complex),
        np.array([[0.0], [1.0]], dtype=complex),
        np.array([[0.0, -4.0 * z * w0]], dtype=complex),
        np.array([[1.0]], dtype=complex),
    )
    return R, w0


def _add_resonances(pool, kind):
    for k in RESONANCE_GRID_INDEX:
        R, w0 = resonance(k)
        F = ref.freq_response(*R, [1j * w0])[0, 0, 0]
        stem = pool.add_file(R, f"resonance{k}")
        truth = {"member": False, "witness": w0, "witness_slack": float(2.0 * F.real)}
        if kind == "sweep":
            pool.add_job("sweep", (2, 1), known_fault=True, file=stem, cls="P", weight=None,
                         truth=truth)
        else:
            pool.add_job("beta_max", (2, 1), known_fault=True, file=stem,
                         truth={"lower": 0.0, "upper": float(ref.pencil_bound(
                             np.array([[[F]]]), np.eye(1))[0]), "witness": w0})


def _sweep_truth(response, tag, T, member):
    s, om = _slack_min(response, tag, T)
    if member and s < 0.0:
        raise AssertionError(f"constructed {tag} member has reference slack {s}")
    if not member and s > -1e-5:
        raise Rejected
    return {"member": member, "witness": None if member else om, "witness_slack": s}


def _screen_cases(rng, n, m, cplx):
    """F, its Cayley image G and their non-member twins, with a member and a
    non-member verdict per class and weight kind, each with its truth."""
    R, R_out, b_in, b_out, T_dir, t_in, t_out = _screen_base(rng, n, m, cplx)
    files = {"": R, "out": R_out, "cay": ref.cayley(R), "cayout": ref.cayley(R_out)}
    responses = {key: ref.axis_response(X) for key, X in files.items()}
    eye = np.eye(m)
    cases = []
    for key, tag, w, member in [
        ("", "P", None, True), ("out", "P", None, False),
        ("", "HP", b_in, True), ("", "HP", b_out, False),
        ("", "HP", t_in * T_dir, True), ("", "HP", t_out * T_dir, False),
        ("cay", "B", None, True), ("cayout", "B", None, False),
        ("cay", "HB", b_in, True), ("cay", "HB", b_out, False),
        ("cay", "HB", t_in * T_dir, True), ("cay", "HB", t_out * T_dir, False),
    ]:
        T = None if w is None else (w * eye if np.isscalar(w) else w)
        cases.append((key, tag, w, _sweep_truth(responses[key], tag, T, member)))
    return files, cases


def build_screen(rng, pool):
    first = None
    for si, (n, m) in enumerate(SIZES):
        for r in range(4):
            files, cases = _draw(rng, n, m, r == 3, _screen_cases)
            stems = {key: pool.add_file(X, f"s{si}r{r}{key}") for key, X in files.items()}
            for key, tag, w, truth in cases:
                weight = None if w is None else (float(w) if np.isscalar(w) else encode(w))
                job = pool.add_job("sweep", (n, m), file=stems[key], cls=tag, weight=weight,
                                   truth=truth)
                if first is None and tag == "HP" and truth["member"] and np.isscalar(w):
                    first = job
    _add_resonances(pool, "sweep")
    return {
        "warmup": first,
        "cold": {"args": ["sweep", "{in}/" + pool.files[first["file"]], "--class", "HP", "--beta",
                          repr(first["weight"])],
                 "expect_exit": 0, "expect": "member True"},
    }


def _quantify_base(rng, n, m, cplx):
    R = passive_realization(rng, n, m, cplx)
    eye = np.eye(m, dtype=complex)
    beta_I = ref.identity_certified_weight(R, eye)
    beta_ub, w_beta = ref.witness(R, eye)
    T_dir = weight_direction(rng, m, cplx)
    t_I = ref.identity_certified_weight(R, T_dir)
    t_ub, w_t = ref.witness(R, T_dir)
    if beta_I < 0.02 or t_I < 0.02 or t_ub >= 0.95:
        raise Rejected
    A = R[0]
    eps_I = float(np.linalg.eigvalsh(-0.5 * (A + A.conj().T))[0])
    eps_max = float(-np.linalg.eigvals(A).real.max())
    return R, T_dir, {
        "beta": {"lower": beta_I, "upper": beta_ub, "witness": w_beta},
        "t_ray": {"lower": t_I, "upper": t_ub, "witness": w_t},
        "sp": {"lower": eps_I, "upper": eps_max, "witness": None},
    }


def build_quantify(rng, pool):
    first = None
    for si, (n, m) in enumerate(SIZES):
        for r in range(2):
            cplx = (si + r) % 4 == 3
            R, T_dir, truth = _draw(rng, n, m, cplx, _quantify_base)
            stem = pool.add_file(R, f"q{si}r{r}")
            job = pool.add_job("beta_max", (n, m), file=stem, truth=truth["beta"])
            first = first or job
            pool.add_job("t_ray_max", (n, m), file=stem, T_dir=encode(T_dir),
                         truth=truth["t_ray"])
            pool.add_job("sp_margin", (n, m), file=stem, truth=truth["sp"])
    for k in range(4):
        R1, R2 = np.exp(rng.uniform(np.log(0.1), np.log(3.0), 2))
        cap = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        tree = {"type": "series", "children": [
            {"type": "R", "value": float(R1)},
            {"type": "parallel", "children": [{"type": "R", "value": float(R2)},
                                              {"type": "C", "value": cap}]}]}
        pool.add_job("rlc_beta", (1, 1), tree=tree, truth={"beta": ref.rlc_beta(R1, R2)})
    _add_resonances(pool, "beta_max")
    return {
        "warmup": first,
        "cold": {"args": ["beta", "{in}/" + pool.files[first["file"]]], "expect_exit": 0,
                 "bracket": first["truth"]},
    }


def _certify_base(rng, n, m, cplx):
    R = passive_realization(rng, n, m, cplx)
    Hc, Ho = ref.gramians(R)
    for Gm in (Hc, Ho):
        w = np.linalg.eigvalsh(Gm)
        if w[0] <= 1e-7 * w[-1]:
            raise Rejected
    sigma = ref.hankel_singular_values(R)
    order = max(1, n // 2)
    if order < n and sigma[order - 1] - sigma[order] <= 1e-3 * sigma[0]:
        raise Rejected
    eye = np.eye(m, dtype=complex)
    beta_I = ref.identity_certified_weight(R, eye)
    T_dir = weight_direction(rng, m, cplx)
    t_I = ref.identity_certified_weight(R, T_dir)
    if beta_I < 0.02 or t_I < 0.02:
        raise Rejected
    f_beta, f_t = rng.uniform(0.3, 0.9, 2)
    return R, float(f_beta * beta_I), f_t * t_I * T_dir, order


def build_certify(rng, pool):
    first = None
    for si, (n, m) in enumerate(SIZES):
        for r in range(4):
            cplx = r == 3
            R, beta, T, order = _draw(rng, n, m, cplx, _certify_base)
            stem = pool.add_file(R, f"c{si}r{r}")
            job = pool.add_job("pipeline", (n, m), file=stem, beta=beta, T=encode(T),
                               order=order)
            first = first or job
    return {
        "warmup": first,
        "cold": {"args": ["certify", "{in}/" + pool.files[first["file"]], "--beta",
                          repr(first["beta"]), "--out", "{in}/cold-cert.json"],
                 "expect_exit": 0, "certificate": "{in}/cold-cert.json", "job": first},
    }


def _above_bound(rng, n, m, cplx):
    R = passive_realization(rng, n, m, cplx)
    eye = np.eye(m, dtype=complex)
    beta_I = ref.identity_certified_weight(R, eye)
    beta_ub, w = ref.witness(R, eye)
    # far enough above the bound that the shrunk weights of the ascent's
    # warm starts are above it too
    if beta_ub >= 0.85 or beta_I < 0.02:
        raise Rejected
    beta = 0.5 * (1.0 + beta_ub)
    E = ref.freq_response(*R, [1j * w])[0] if np.isfinite(w) else R[3]
    s = float(ref.min_eig(ref.class_slack(E, "HP", beta * eye)))
    return R, beta, 0.5 * beta_I, {"member": False, "witness": w, "witness_slack": s}


def singular_weight_family(gamma):
    """The ex4-9-singularT family: D + D* is singular, so only the ascent applies."""
    return (
        np.diag([-1.0, -2.0]).astype(complex),
        gamma * np.ones((2, 2), dtype=complex),
        gamma * np.ones((2, 2), dtype=complex),
        np.diag([1.0, 0.0]).astype(complex),
    )


def build_boundary(rng, pool):
    # n = 2: with one state the ascent's gradient can vanish early, and the
    # job's cost would change with the seed
    R, beta, beta_in, truth = _draw(rng, 2, 1, False, _above_bound)
    stem = pool.add_file(R, "above")
    above = pool.add_job("certify", (2, 1), file=stem, weight=beta, truth=truth)
    # a Riccati-path search on the same input warms kyp without seconds of ascent
    warm = {"id": "warmup", "kind": "certify", "size": [2, 1], "known_fault": False,
            "file": stem, "weight": beta_in, "truth": {"member": True}}
    gamma = float(rng.uniform(0.5, 1.25))
    t = float(rng.uniform(0.25, 0.5))
    R = singular_weight_family(gamma)
    T = np.diag([t, 0.0]).astype(complex)
    ok, slack = ref.certificate_ok(R, np.eye(2), T, floor=-1e-12)
    if not ok:
        raise AssertionError(f"identity does not certify the singular family: {slack}")
    stem = pool.add_file(R, "singular")
    pool.add_job("certify", (2, 2), file=stem, weight=encode(T),
                 truth={"member": True, "identity_slack": slack})
    return {
        "warmup": warm,
        "cold": {"args": ["certify", "{in}/" + pool.files[above["file"]], "--beta",
                          repr(above["weight"])],
                 "expect_exit": 2, "expect": "infeasible"},
    }


POOLS = {
    "screen": build_screen,
    "quantify": build_quantify,
    "certify": build_certify,
    "boundary": build_boundary,
}


def generate(workload, seed, out):
    os.makedirs(out, exist_ok=True)
    # SeedSequence takes non-negative entropy; the mask keeps negative seeds distinct
    rng = np.random.default_rng([seed & (2**64 - 1), sorted(POOLS).index(workload)])
    pool = Pool(out)
    extra = POOLS[workload](rng, pool)
    manifest = {"workload": workload, "seed": seed, "files": pool.files, "jobs": pool.jobs}
    manifest.update(extra)
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
