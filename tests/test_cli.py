import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kypcert
from conftest import delta_dip, f_s2_over_s1, scalar_realization
from kypcert.circuits import Capacitor, Parallel, Resistor, Series, tree_to_dict
from kypcert.classes import FrequencyGrid
from kypcert.cli import main, nyquist_emit
from kypcert.realization import Realization


@pytest.fixture
def realization_file(tmp_path):
    path = tmp_path / "r.json"
    f_s2_over_s1().save(path)
    return str(path)


class TestExitCodes:
    def test_certify_member(self, realization_file, tmp_path):
        out = str(tmp_path / "cert.json")
        assert main(["certify", realization_file, "--beta", "0.75", "--out", out]) == 0
        with open(out) as fh:
            data = json.load(fh)
        assert set(data) == {"H", "T", "slack", "method"}

    def test_certify_infeasible(self, realization_file):
        assert main(["certify", realization_file, "--beta", "0.95"]) == 2

    def test_certify_infeasible_prints_witness(self, realization_file, capsys):
        assert main(["certify", realization_file, "--beta", "0.95"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "infeasible: no certificate found above slack -1e-06"
        assert lines[1].startswith("witness: omega 0 slack bound -0.37")

    def test_certify_prints_the_witness_of_its_own_search(
        self, realization_file, capsys, monkeypatch
    ):
        import kypcert.kyp as kyp

        builds = []
        popov = kyp._popov_hamiltonian

        def counted(*args, **kwargs):
            builds.append(args)
            return popov(*args, **kwargs)

        monkeypatch.setattr(kyp, "_popov_hamiltonian", counted)
        assert main(["certify", realization_file, "--beta", "0.95"]) == 2
        assert len(builds) == 1
        omega, bound = kyp.infeasibility_witness(f_s2_over_s1(), 0.95)
        assert capsys.readouterr().out.splitlines() == [
            "infeasible: no certificate found above slack -1e-06",
            f"witness: omega {omega:.17g} slack bound {bound:.17g}",
        ]

    def test_certify_shallow_dip_prints_its_witness(self, tmp_path, capsys):
        # Re F(j w0) = -1e-4 at w0 = 30.5492: a shifted solve used to certify it
        path = tmp_path / "dip.json"
        delta_dip(1e-4).save(path)
        assert main(["certify", str(path), "--beta", "0"]) == 2
        infeasible, witness = capsys.readouterr().out.splitlines()
        assert infeasible == "infeasible: no certificate found above slack -1e-06"
        _, label, omega, *_ = witness.split()
        assert label == "omega" and float(omega) == pytest.approx(30.5492, rel=1e-6)

    def test_certify_with_stored_certificate(self, realization_file, tmp_path):
        out = str(tmp_path / "cert.json")
        main(["certify", realization_file, "--beta", "0.75", "--out", out])
        assert main(["certify", realization_file, "--beta", "0.75", "--H", out]) == 0

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["certify", str(tmp_path / "nope.json"), "--beta", "0.5"]) == 3

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "malformed"])
    def test_sweep_bad_weight_file_is_input_error(
        self, realization_file, tmp_path, capsys, content
    ):
        path = tmp_path / "T.json"
        if content is not None:
            path.write_text(content)
        assert main(["sweep", realization_file, "--class", "HP", "--T", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: bad weight: ")

    def test_sweep_nonmember(self, realization_file):
        assert main(["sweep", realization_file, "--class", "HP", "--beta", "0.9"]) == 2
        assert main(["sweep", realization_file, "--class", "HP", "--beta", "0.5"]) == 0

    def test_invert_singular_is_numerical_error(self, tmp_path):
        path = tmp_path / "sing.json"
        scalar_realization(-1.0, -1.0, 1.0, 1.0).save(path)
        assert main(["invert", str(path), "--mode", "array"]) == 4

    @pytest.mark.parametrize(
        "command, realization, message",
        [
            (["truncate", "--order", "0"], scalar_realization(-1.0, 1.0, 1.0, 1.0),
             "error: truncation order must lie in [1, 1], got 0"),
            (["truncate", "--order", "1"], scalar_realization(1.0, 1.0, 1.0, 1.0),
             "error: Gramians require a Hurwitz A matrix"),
            (["cayley"], scalar_realization(-1.0, 1.0, 1.0, -1.0),
             "error: Cayley transform undefined: -1 in the spectrum of D"),
        ],
        ids=["order-0", "not-hurwitz", "cayley-minus-one"],
    )
    def test_transform_input_errors_are_input_errors(
        self, command, realization, message, tmp_path, capsys
    ):
        path = tmp_path / "r.json"
        realization.save(path)
        assert main([command[0], str(path), *command[1:]]) == 3
        assert capsys.readouterr().err.strip() == message

    def test_cayley_rejects_d_within_the_band_of_minus_one(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        scalar_realization(-1.0, 1.0, 1.0, -1.0 + 1e-14).save(path)
        assert main(["cayley", str(path)]) == 3
        assert capsys.readouterr().err.strip() == (
            "error: Cayley transform undefined: -1 in the spectrum of D"
        )

    def test_unknown_demo_is_input_error(self):
        assert main(["demo", "definitely-not-a-demo"]) == 3

    def test_usage_error_is_input_error(self):
        assert main(["certify"]) == 3  # missing positional argument

    def test_matrix_weight_file(self, tmp_path):
        from conftest import singular_weight_family

        src = tmp_path / "f.json"
        singular_weight_family(1.0).save(src)
        tfile = tmp_path / "T.json"
        tfile.write_text(json.dumps({"T": [[0.5, 0.0], [0.0, 0.0]]}))
        # the diagonal weight admits the identity certificate
        assert main(["certify", str(src), "--T", str(tfile)]) == 0
        assert main(["sweep", str(src), "--class", "HP", "--T", str(tfile)]) == 0
        # the singular D-block gives a shifted certificate, slack about -5e-7,
        # which a stored-certificate check must accept too
        cert = str(tmp_path / "cert.json")
        assert main(["certify", str(src), "--T", str(tfile), "--out", cert]) == 0
        assert main(["certify", str(src), "--T", str(tfile), "--H", cert]) == 0


def test_cli_import_leaves_out_scipy():
    # scipy is needed only once a Riccati equation is solved
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kypcert.__file__)))
    code = "import sys, kypcert.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def _certify_and_truncate(tmp_path, setup=""):
    """Exit codes of certify, certificate check and truncate on a 2-state member,
    run in a fresh process after ``setup``, and whether scipy.linalg got loaded there."""
    src, cert = str(tmp_path / "r.json"), str(tmp_path / "cert.json")
    # 1 + 1/(s + 1) + 2/(s + 3): positive real, minimal, Hankel values apart
    Realization(A=np.diag([-1.0, -3.0]), B=[[1.0], [1.0]], C=[[1.0, 2.0]], D=[[1.0]]).save(src)
    code = (
        "import sys\n"
        "from kypcert import realization\n"
        "from kypcert.cli import main\n"
        f"{setup}\n"
        f"codes = [main(['certify', {src!r}, '--beta', '0.1', '--out', {cert!r}]),\n"
        f"         main(['certify', {src!r}, '--beta', '0.1', '--H', {cert!r}]),\n"
        f"         main(['truncate', {src!r}, '--order', '1'])]\n"
        "print(codes, 'scipy.linalg' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kypcert.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.splitlines()[-1]


def test_certify_and_truncate_leave_out_scipy(tmp_path):
    # a well-conditioned eigenbasis of the Hamiltonian and of A: the Riccati
    # solutions and the Gramians come from numpy eigensolves alone
    assert _certify_and_truncate(tmp_path) == "[0, 0, 0] False"


def test_ill_conditioned_eigenbases_take_scipy(tmp_path):
    # with no eigenbasis trusted, the Schur-form Riccati solve and the scipy
    # Lyapunov solve run instead, and the certificate still verifies
    setup = "realization._MODAL_COND_MAX = 0.0"
    assert _certify_and_truncate(tmp_path, setup) == "[0, 0, 0] True"


class TestCommands:
    def test_beta(self, realization_file, capsys):
        assert main(["beta", realization_file]) == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out.splitlines()[0]) - 0.8) < 1e-6

    def test_beta_rejects_a_negative_tolerance(self, realization_file, capsys):
        assert main(["beta", realization_file, "--tol", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: tol")

    def test_invert_round_trip(self, realization_file, tmp_path, capsys):
        out = str(tmp_path / "inv.json")
        assert main(["invert", realization_file, "--mode", "array", "--out", out]) == 0
        R = Realization.load(out)
        assert np.allclose(R.array.real, [[-0.5, 0.5], [0.5, 0.5]])

    def test_cayley_and_affine(self, realization_file, tmp_path):
        g1 = str(tmp_path / "g1.json")
        assert main(["cayley", realization_file, "--out", g1]) == 0
        assert Realization.load(g1).n == 1
        g2 = str(tmp_path / "g2.json")
        g3 = str(tmp_path / "g3.json")
        assert main(["affine", realization_file, "--beta", "0.6",
                     "--out-g2", g2, "--out-g3", g3]) == 0
        assert np.allclose(Realization.load(g2).D, -Realization.load(g3).D)

    def test_truncate(self, tmp_path):
        from conftest import hull_vertex

        src = tmp_path / "v.json"
        hull_vertex(1.0, 1.0, 1.0).save(src)
        out = str(tmp_path / "t.json")
        assert main(["truncate", str(src), "--order", "1", "--out", out]) == 0
        R = Realization.load(out)
        assert R.n == 1

    def test_combine(self, tmp_path):
        from conftest import hull_vertex

        poly = {
            "vertices": [hull_vertex(1, 1, 1).to_dict(), hull_vertex(2, 1, 2).to_dict()],
            "weights": [0.5, 0.5],
        }
        src = tmp_path / "poly.json"
        src.write_text(json.dumps(poly))
        out = str(tmp_path / "comb.json")
        assert main(["combine", str(src), "--out", out]) == 0
        assert Realization.load(out).n == 2

    def test_combine_rejects_nan_weights(self, tmp_path, capsys):
        from conftest import hull_vertex

        vertex = hull_vertex(1, 1, 1).to_dict()
        src = tmp_path / "poly.json"
        src.write_text(json.dumps({"vertices": [vertex, vertex], "weights": [np.nan, np.nan]}))
        out = tmp_path / "comb.json"
        assert main(["combine", str(src), "--out", str(out)]) == 3
        assert "bad polytope" in capsys.readouterr().err
        assert not out.exists()

    def test_combine_saved_polytope(self, tmp_path):
        from conftest import hull_vertex
        from kypcert.reduction import RealizationPolytope, combine_realizations

        poly = RealizationPolytope(
            vertices=[hull_vertex(1, 1, 1), hull_vertex(2, 1, 2)], weights=[0.25, 0.75]
        )
        src = tmp_path / "poly.json"
        poly.save(src)
        out = str(tmp_path / "comb.json")
        assert main(["combine", str(src), "--out", out]) == 0
        assert np.array_equal(Realization.load(out).array, combine_realizations(poly).array)

    def test_impedance(self, tmp_path):
        tree = tree_to_dict(Series(Resistor(1.0), Parallel(Resistor(1.0), Capacitor(1.0))))
        src = tmp_path / "tree.json"
        src.write_text(json.dumps(tree))
        out = str(tmp_path / "z.json")
        assert main(["impedance", str(src), "--out", out]) == 0
        R = Realization.load(out)
        assert R.n == 1 and abs(R.D[0, 0] - 1.0) < 1e-14

    def test_impedance_improper_rejected(self, tmp_path):
        src = tmp_path / "tree.json"
        src.write_text(json.dumps({"type": "L", "value": 1.0}))
        assert main(["impedance", str(src)]) == 3

    @pytest.mark.parametrize("command", ["cayley", "invert", "truncate", "combine", "impedance"])
    def test_stdout_matches_out_file(self, command, tmp_path, capsys):
        from conftest import hull_vertex

        src = tmp_path / "in.json"
        if command == "combine":
            vertices = [hull_vertex(1, 1, 1).to_dict(), hull_vertex(2, 1, 2).to_dict()]
            src.write_text(json.dumps({"vertices": vertices, "weights": [0.5, 0.5]}))
        elif command == "impedance":
            src.write_text(json.dumps(tree_to_dict(Series(Resistor(1.0), Capacitor(1.0)))))
        else:
            hull_vertex(1.0, 1.0, 1.0).save(src)
        extra = {"invert": ["--mode", "function"], "truncate": ["--order", "1"]}.get(command, [])
        out = str(tmp_path / "out.json")
        assert main([command, str(src), *extra, "--out", out]) == 0
        capsys.readouterr()
        assert main([command, str(src), *extra]) == 0
        printed = Realization.from_dict(json.loads(capsys.readouterr().out.splitlines()[-1]))
        assert printed.to_dict() == Realization.load(out).to_dict()

    def test_demo_runs(self, capsys):
        assert main(["demo", "ex4-6-inversion"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestNyquistCsv:
    def test_values_and_format(self, tmp_path):
        # 3/5 + 8/(5 (s+1)^2) evaluates to 3/5 - 4i/5 at omega = 1
        R = Realization(A=[[-1.0, 1.0], [0.0, -1.0]], B=[[0.0], [1.0]],
                        C=[[1.6, 0.0]], D=[[0.6]])
        path = tmp_path / "nyq.csv"
        grid = FrequencyGrid(omegas=[0.0, 1.0, 2.0])
        nyquist_emit(R, grid, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "omega,re_0_0,im_0_0"
        row = lines[2].split(",")
        assert float(row[0]) == 1.0
        assert abs(float(row[1]) - 0.6) < 1e-14
        assert abs(float(row[2]) + 0.8) < 1e-14

    def test_constant_system_repeats(self, tmp_path):
        R = Realization.constant([[2.0, 0.0], [0.0, 3.0]])
        path = tmp_path / "nyq.csv"
        nyquist_emit(R, FrequencyGrid(omegas=[0.0, 1.0]), path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("omega,re_0_0,im_0_0,re_0_1")
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]

    def test_pole_on_grid_fails(self, tmp_path, capsys):
        R = scalar_realization(0.0, 1.0, 1.0, 0.0)
        path = tmp_path / "nyq.csv"
        src = tmp_path / "r.json"
        R.save(src)
        assert main(["nyquist", str(src), "--out", str(path)]) == 4
