"""The job lists of the workloads, bound to kypcert's public functions.

A job is one call a user would make: a membership verdict, an extremal
weight, a certificate pipeline or a certificate search. Every call looks its
function up on the ``kypcert`` package at call time, so a traced run sees
the patched names. Only numpy and kypcert are used here: the set-up probe
imports this module right after kypcert, and must not pay for the
reference code.
"""

import os
from dataclasses import dataclass
from typing import Callable

from codec import decode


@dataclass(frozen=True)
class Job:
    id: str
    size: tuple
    known_fault: bool
    spec: dict
    run: Callable[[], object]


def _weight(w):
    return w if w is None or isinstance(w, float) else decode(w)


def _sweep(kc, R, spec):
    tag, weight = spec["cls"], _weight(spec["weight"])

    def run():
        cls = kc.ClassSpec(tag) if weight is None else kc.ClassSpec(tag, weight)
        return kc.sweep_membership(R, cls).member

    return run


def _beta_max(kc, R, spec):
    def run():
        r = kc.beta_max(R)
        return r.value, r.empty

    return run


def _t_ray_max(kc, R, spec):
    T_dir = decode(spec["T_dir"])

    def run():
        r = kc.t_ray_max(R, T_dir)
        return r.value, r.empty

    return run


def _sp_margin(kc, R, spec):
    return lambda: kc.sp_margin(R)


def _rlc_beta(kc, R, spec):
    from kypcert.circuits import tree_from_dict

    tree = tree_from_dict(spec["tree"])

    def run():
        r = kc.beta_max(kc.build_impedance(tree))
        return r.value, r.empty

    return run


def _pipeline(kc, R, spec):
    beta, T, order = spec["beta"], decode(spec["T"]), spec["order"]

    def run():
        certs = (kc.find_certificate(R, beta), kc.find_certificate(R, T))
        inverses = tuple(
            kc.invert_with_certificate(R, c.H, c.T) if c is not None else None for c in certs
        )
        bal = kc.balance(R)
        return {"certs": certs, "inverses": inverses, "balanced": bal,
                "reduced": kc.truncate_balanced(bal, order)}

    return run


def _certify(kc, R, spec):
    weight = _weight(spec["weight"])
    return lambda: kc.find_certificate(R, weight)


RUNNERS = {
    "sweep": _sweep,
    "beta_max": _beta_max,
    "t_ray_max": _t_ray_max,
    "sp_margin": _sp_margin,
    "rlc_beta": _rlc_beta,
    "pipeline": _pipeline,
    "certify": _certify,
}


def _job(kc, spec, loaded):
    R = loaded.get(spec.get("file"))
    run = RUNNERS[spec["kind"]](kc, R, spec)
    return Job(spec["id"], tuple(spec["size"]), spec["known_fault"], spec, run)


def build(kc, manifest, indir):
    """Load every input through ``Realization.load``; return (jobs, warm-up job)."""
    loaded = {
        stem: kc.Realization.load(os.path.join(indir, name))
        for stem, name in manifest["files"].items()
    }
    jobs = [_job(kc, spec, loaded) for spec in manifest["jobs"]]
    return jobs, _job(kc, manifest["warmup"], loaded)
