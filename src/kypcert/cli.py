"""Command-line workbench.

Exit codes are script-friendly: 0 for success / membership, 2 for
non-membership or an infeasible certificate search, 3 for input errors and
4 for numerical failures. All numbers print in full double precision with
locale-independent formatting.
"""

import argparse
import json
import sys

import numpy as np

from . import demos
from .circuits import ImproperTopologyError, build_impedance, tree_from_dict
from .classes import (
    FrequencyGrid,
    affine_hb_maps,
    beta_max,
    cayley_function,
    sweep_membership,
)
from .kyp import (
    SLACK_FLOOR,
    certificate_from_dict,
    certificate_to_dict,
    find_certificate,
    infeasibility_witness,
    validate_certificate,
    verify_certificate,
)
from .qmi import ClassSpec
from .realization import (
    PoleError,
    decode_matrix,
    Realization,
    SingularArrayError,
    array_inverse,
    balance,
    evaluate_grid,
    function_inverse,
)
from .reduction import RealizationPolytope, combine_realizations, truncate_balanced

EXIT_OK = 0
EXIT_NONMEMBER = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return f"{float(x):.17g}"


def _load_realization(path) -> Realization:
    try:
        return Realization.load(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise SystemExit(_fail(EXIT_INPUT, f"cannot read realization {path!r}: {exc}"))


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _save_or_print(R: Realization, path) -> None:
    """Write R to ``path``, or print its JSON when no path is given."""
    if path:
        R.save(path)
        print(f"wrote {path}")
    else:
        print(json.dumps(R.to_dict()))


def _weight_from_args(args, m: int):
    if getattr(args, "beta", None) is not None:
        return float(args.beta)
    if getattr(args, "T", None):
        try:
            with open(args.T) as fh:
                data = json.load(fh)
            rows = data["T"] if isinstance(data, dict) and "T" in data else data
            return decode_matrix(rows, (m, m))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(_fail(EXIT_INPUT, f"bad weight: {exc}"))
    return 0.0


def nyquist_emit(R: Realization, grid: FrequencyGrid, path) -> None:
    """Write frequency-response samples as CSV: omega then re/im per entry.

    Rows are ordered by frequency, columns row-major over the output/input
    indices, lines LF-terminated. Frequencies hitting a pole are an error.
    """
    omegas = grid.omegas
    values = evaluate_grid(R, 1j * omegas)
    if np.any(np.isnan(values)):
        raise PoleError("a sampled frequency hits a pole; thin the grid")
    header = ["omega"]
    for i in range(R.p):
        for j in range(R.m):
            header.append(f"re_{i}_{j}")
            header.append(f"im_{i}_{j}")
    lines = [",".join(header)]
    for k, om in enumerate(omegas):
        row = [_fmt(om)]
        for i in range(R.p):
            for j in range(R.m):
                row.append(_fmt(values[k, i, j].real))
                row.append(_fmt(values[k, i, j].imag))
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_certify(args) -> int:
    R = _load_realization(args.realization)
    T = _weight_from_args(args, R.m)
    if args.H:
        try:
            with open(args.H) as fh:
                cert = certificate_from_dict(json.load(fh))
            slack = validate_certificate(R, cert)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            return _fail(EXIT_INPUT, f"bad certificate file: {exc}")
        print(f"slack {_fmt(slack)}")
        return EXIT_OK if slack >= SLACK_FLOOR else EXIT_NONMEMBER
    cert = find_certificate(R, T)
    if cert is None:
        print(f"infeasible: no certificate found above slack {SLACK_FLOOR:g}")
        witness = infeasibility_witness(R, T)
        if witness is None:
            print("witness: none; the failed search is not a proof")
        else:
            print(f"witness: omega {_fmt(witness[0])} slack bound {_fmt(witness[1])}")
        return EXIT_NONMEMBER
    print(f"feasible ({cert.method}); slack {_fmt(cert.slack)}")
    for row in cert.H:
        print("  " + " ".join(_fmt(v) for v in row))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(certificate_to_dict(cert), fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_beta(args) -> int:
    R = _load_realization(args.realization)
    result = beta_max(R, tol=args.tol)
    print(_fmt(result.value))
    if result.empty:
        print("flag: no positive weight passes (merely positive or unstable)")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    R = _load_realization(args.realization)
    weight = _weight_from_args(args, R.m) if args.cls in ("HP", "HB") else None
    report = sweep_membership(R, ClassSpec(args.cls, weight))
    print(
        f"member {report.member}; min slack {_fmt(report.min_slack)} at "
        f"omega {_fmt(report.argmin_omega)}; analyticity {report.analyticity_ok}"
    )
    if report.pole_omegas:
        print(f"skipped pole frequencies: {list(report.pole_omegas)}")
    return EXIT_OK if report.member else EXIT_NONMEMBER


def _cmd_cayley(args) -> int:
    R = _load_realization(args.realization)
    try:
        G = cayley_function(R)
    except ValueError as exc:
        return _fail(EXIT_NUMERICAL, str(exc))
    _save_or_print(G, args.out)
    return EXIT_OK


def _cmd_affine(args) -> int:
    R = _load_realization(args.realization)
    G2, G3 = affine_hb_maps(R, float(args.beta))
    if args.out_g2:
        G2.save(args.out_g2)
        print(f"wrote {args.out_g2}")
    if args.out_g3:
        G3.save(args.out_g3)
        print(f"wrote {args.out_g3}")
    if not (args.out_g2 or args.out_g3):
        print(json.dumps({"g2": G2.to_dict(), "g3": G3.to_dict()}))
    return EXIT_OK


def _cmd_invert(args) -> int:
    R = _load_realization(args.realization)
    out = array_inverse(R) if args.mode == "array" else function_inverse(R)
    _save_or_print(out, args.out)
    return EXIT_OK


def _cmd_truncate(args) -> int:
    R = _load_realization(args.realization)
    try:
        bal = balance(R)
        out = truncate_balanced(bal, args.order)
    except ValueError as exc:
        return _fail(EXIT_NUMERICAL, str(exc))
    print("hankel " + " ".join(_fmt(s) for s in bal.sigma))
    _save_or_print(out, args.out)
    return EXIT_OK


def _cmd_combine(args) -> int:
    try:
        poly = RealizationPolytope.load(args.polytope)
        out = combine_realizations(poly)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(EXIT_INPUT, f"bad polytope: {exc}")
    _save_or_print(out, args.out)
    return EXIT_OK


def _cmd_impedance(args) -> int:
    try:
        with open(args.tree) as fh:
            tree = tree_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(EXIT_INPUT, f"bad tree: {exc}")
    try:
        R = build_impedance(tree)
    except ImproperTopologyError as exc:
        return _fail(EXIT_INPUT, str(exc))
    _save_or_print(R, args.out)
    return EXIT_OK


def _cmd_nyquist(args) -> int:
    R = _load_realization(args.realization)
    nyquist_emit(R, FrequencyGrid.default(args.points), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_demo(args) -> int:
    if args.all:
        return EXIT_OK if demos.run_all_demos() else EXIT_NUMERICAL
    if not args.id:
        return _fail(EXIT_INPUT, "give a demo id or --all")
    try:
        ok = demos.run_demo(args.id)
    except KeyError as exc:
        return _fail(EXIT_INPUT, str(exc.args[0]))
    return EXIT_OK if ok else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kypcert",
        description="certify, transform and reduce positive-real realizations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="verify or search a KYP certificate")
    p.add_argument("realization")
    p.add_argument("--beta", type=float, help="scalar weight in [0, 1)")
    p.add_argument("--T", help="JSON file holding the weight matrix")
    p.add_argument("--H", help="certificate JSON to verify instead of searching")
    p.add_argument("--out", help="write the found certificate here")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("beta", help="largest scalar weight by level-set iteration")
    p.add_argument("realization")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="gap between the verified weight and the smallest bound found")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("sweep", help="frequency-sweep class membership")
    p.add_argument("realization")
    p.add_argument("--class", dest="cls", default="P",
                   choices=["P", "B", "PO", "SP", "HP", "HB"])
    p.add_argument("--beta", type=float)
    p.add_argument("--T")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("cayley", help="Cayley transform of the transfer function")
    p.add_argument("realization")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("affine", help="the two affine hyper-bounded companions")
    p.add_argument("realization")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out-g2")
    p.add_argument("--out-g3")
    p.set_defaults(func=_cmd_affine)

    p = sub.add_parser("invert", help="array or function inversion")
    p.add_argument("realization")
    p.add_argument("--mode", choices=["array", "function"], required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("truncate", help="balance then truncate to a given order")
    p.add_argument("realization")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("combine", help="convex combination of a polytope file")
    p.add_argument("polytope")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("impedance", help="realize an RLC tree's impedance")
    p.add_argument("tree")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_impedance)

    p = sub.add_parser("nyquist", help="emit frequency-response CSV")
    p.add_argument("realization")
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=int, default=401)
    p.set_defaults(func=_cmd_nyquist)

    p = sub.add_parser("demo", help="run a built-in numeric scenario")
    p.add_argument("id", nargs="?")
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_demo)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for non-membership
        return 0 if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT
    except (SingularArrayError, PoleError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return _fail(EXIT_NUMERICAL, str(exc))
    except (ValueError, KeyError) as exc:
        return _fail(EXIT_INPUT, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
