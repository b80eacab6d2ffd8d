import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from dcoh import cli
from dcoh.states import max_coherent, pure_to_density, state_to_json

QUTRIT = np.array([math.sqrt(5.0 / 8.0), math.sqrt(3.0 / 16.0), math.sqrt(3.0 / 16.0)])


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / f"{name}.json"
        p.write_text(state_to_json(obj))
        paths[name] = str(p)

    write("qutrit", QUTRIT)
    write("psi2", max_coherent(2))
    write("psi2_dm", pure_to_density(max_coherent(2)))
    write("flat", np.diag([0.5, 0.5]).astype(complex))
    paths["tmp"] = str(tmp_path)
    return paths


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: {name}")


def strict_loads(text):
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, strict_loads(out) if out else None


def assert_input_error(capsys, argv, match):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert match in captured.err


def test_monotones_maxcoherent(capsys, files):
    code, rep = run(capsys, ["monotones", files["psi2_dm"]])
    assert code == 0
    res = rep["results"]
    assert abs(res["r_delta"] - 1.0) < 1e-9
    assert abs(res["rel_entropy_bits"] - 1.0) < 1e-9
    assert abs(res["l1"] - 2.0) < 1e-12
    assert rep["inputs"][0]["sha256"]


def test_monotones_incoherent_all_zero(capsys, files):
    code, rep = run(capsys, ["monotones", files["flat"]])
    assert code == 0
    res = rep["results"]
    assert res["r_delta"] < 1e-9
    assert res["rel_entropy_bits"] < 1e-9
    assert abs(res["l1"] - 1.0) < 1e-12


def test_monotones_qutrit_c2(capsys, files):
    code, rep = run(capsys, ["monotones", files["qutrit"]])
    assert code == 0
    c_k = dict(map(tuple, rep["results"]["c_k"]))
    assert abs(c_k[2] - 0.375) < 1e-12


def test_distill_zero_regime(capsys, files):
    code, rep = run(capsys, ["distill", files["qutrit"], "--regime", "zero"])
    assert code == 0
    assert rep["results"]["one_shot_bits"] == 1.0


def test_distill_one_shot_reports_certificates(capsys, files):
    code, rep = run(capsys, ["distill", files["psi2_dm"], "--eps", "0.0"])
    assert code == 0
    assert abs(rep["certificates"]["duality_gap"]) < 1e-6
    assert rep["results"]["eps"] == 0.0


def test_distill_asymptotic(capsys, files):
    code, rep = run(capsys, ["distill", files["qutrit"], "--regime", "asymptotic"])
    assert code == 0
    assert rep["results"]["one_shot_bits"] == rep["results"]["raw_value"]


def test_decide_pure_negative_exit(capsys, files):
    code, rep = run(capsys, ["decide", files["qutrit"], files["psi2"]])
    assert code == 1
    assert rep["results"]["possible"] is False


def test_decide_identical_states(capsys, files):
    code, rep = run(capsys, ["decide", files["qutrit"], files["qutrit"]])
    assert code == 0
    assert rep["results"]["possible"] is True


def test_decide_qubit(capsys, files):
    code, rep = run(capsys, ["decide", "--qubit", files["psi2_dm"], files["flat"]])
    assert code == 0 and rep["mode"] == "qubit"


def test_decide_heralded(capsys, files, tmp_path):
    ensemble = {
        "items": [
            {"prob": 0.5, "state": json.loads(state_to_json(max_coherent(2)))},
            {"prob": 0.5, "state": json.loads(state_to_json(np.array([0, 1, 1]) / np.sqrt(2)))},
        ]
    }
    epath = tmp_path / "ens.json"
    epath.write_text(json.dumps(ensemble))
    code, rep = run(capsys, ["decide", files["psi2"], "--heralded", str(epath)])
    assert code == 0 and rep["mode"] == "heralded"


def test_channel_construct_and_verify_round_trip(capsys, files, tmp_path):
    out = str(tmp_path / "prop5.json")
    code, rep = run(
        capsys,
        ["channel", "--construct", "prop5", "--state", files["qutrit"],
         "--target", files["psi2_dm"], "--out", out],
    )
    assert code == 0
    assert rep["results"]["dio"] is False  # input-tailored, not fully covariant
    code, rep = run(capsys, ["channel", "--verify", out, "--rho", files["qutrit"]])
    assert code == 0
    assert rep["results"]["rho_dio"] is True
    assert rep["results"]["rho_dio_violation"] <= 1e-8


def test_channel_verify_dephasing_is_dio(capsys, tmp_path):
    from dcoh.channels import channel_to_json, dephasing_channel

    path = tmp_path / "deph.json"
    path.write_text(channel_to_json(dephasing_channel(3)))
    code, rep = run(capsys, ["channel", "--verify", str(path)])
    assert code == 0
    assert rep["results"]["dio"] is True


def test_channel_construct_distill(capsys, files, tmp_path):
    out = str(tmp_path / "distill.json")
    code, rep = run(
        capsys,
        ["channel", "--construct", "distill", "--state", files["qutrit"],
         "--m", "2", "--out", out],
    )
    assert code == 0
    assert abs(rep["results"]["fidelity"] - 1.0) < 1e-7


def test_oracle_exit_codes(capsys, files):
    code, rep = run(capsys, ["oracle", files["qutrit"], files["psi2_dm"]])
    assert code == 0 and rep["results"]["status"] == "feasible"
    code, rep = run(capsys, ["oracle", files["flat"], files["psi2_dm"]])
    assert code == 1
    assert rep["results"]["certificate"]["monotone"]


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "density"}')
    code = cli.main(["monotones", str(bad)])
    capsys.readouterr()
    assert code == 3
    code = cli.main(["monotones", str(tmp_path / "missing.json")])
    capsys.readouterr()
    assert code == 3


def test_non_finite_document_exit_code(capsys, tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text('{"kind": "density", "dim": 2, "re": [[NaN, 0], [0, NaN]], '
                   '"im": [[0, 0], [0, 0]]}')
    code = cli.main(["distill", str(bad), "--eps", "0.1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_reports_are_deterministic(capsys, files):
    _, rep1 = run(capsys, ["monotones", files["qutrit"]])
    _, rep2 = run(capsys, ["monotones", files["qutrit"]])
    rep1.pop("wall_time_s")
    rep2.pop("wall_time_s")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_cohere_tol_env_override(capsys, files, monkeypatch):
    monkeypatch.setenv("COHERE_TOL", "1e-6")
    _, rep = run(capsys, ["monotones", files["qutrit"]])
    assert rep["tolerances"]["decision"] == 1e-6


def test_channel_construct_missing_arguments(capsys, files):
    assert_input_error(capsys, ["channel", "--construct", "distill"], "needs --state")
    assert_input_error(capsys, ["channel", "--construct", "prop5", "--target", files["psi2_dm"]],
                       "needs --state")
    assert_input_error(capsys, ["channel", "--construct", "prop5", "--state", files["qutrit"]],
                       "needs --target")


def test_oracle_zero_iterations_is_strict_json(capsys, files):
    code, rep = run(capsys, ["oracle", files["qutrit"], files["qutrit"], "--max-iters", "0"])
    assert code == 2
    assert rep["results"]["status"] == "undetermined"
    assert rep["results"]["residual"] is None


def test_emit_refuses_non_finite_values(capsys, monkeypatch, files):
    nan_report = SimpleNamespace(r_delta=math.nan, rel_entropy_bits=0.0, renyi=[], l1=1.0,
                                 c_k=[], lp_moduli=[])
    monkeypatch.setattr(cli.monotones, "monotone_report", lambda rho, psi=None: nan_report)
    assert_input_error(capsys, ["monotones", files["qutrit"]], "not JSON compliant")


def test_decide_wrong_number_of_states(capsys, files):
    q = files["qutrit"]
    assert_input_error(capsys, ["decide", q, q, q], "pure mode takes 2 state file(s), got 3")
    assert_input_error(capsys, ["decide", "--qubit", files["psi2_dm"]],
                       "qubit mode takes 2 state file(s), got 1")
    assert_input_error(capsys, ["decide", files["psi2"], files["psi2"], "--heralded", q],
                       "heralded mode takes 1 state file(s), got 2")


def test_decide_rejects_qubit_with_heralded(capsys, files):
    missing = files["tmp"] + "/missing.json"
    assert_input_error(capsys, ["decide", "--qubit", files["psi2_dm"], files["flat"],
                                "--heralded", missing], "not both")


@pytest.mark.parametrize("doc", [{"items": 5}, {"items": [1]}], ids=["items-int", "item-int"])
def test_malformed_ensemble_exit_code(capsys, files, tmp_path, doc):
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, ["decide", files["psi2"], "--heralded", str(path)],
                       "malformed ensemble document")


@pytest.mark.parametrize("kraus", [5, [1]], ids=["kraus-int", "kraus-item-int"])
def test_malformed_channel_exit_code(capsys, tmp_path, kraus):
    from dcoh.channels import channel_to_json, dephasing_channel

    doc = json.loads(channel_to_json(dephasing_channel(2)))
    doc["kraus"] = kraus
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, ["channel", "--verify", str(path)], "malformed channel document")


def test_solver_diagnostics_are_reported_and_deterministic(capsys, files, tmp_path):
    argvs = [
        ["distill", files["qutrit"], "--eps", "0.1"],
        ["channel", "--construct", "distill", "--state", files["qutrit"], "--m", "3",
         "--out", str(tmp_path / "distill.json")],
    ]
    for argv in argvs:
        _, rep1 = run(capsys, argv)
        _, rep2 = run(capsys, argv)
        diag = rep1["diagnostics"]
        assert diag["path"] in ("kink", "smooth")
        assert diag["eig_calls"] >= 3 and diag["band_widenings"] == 0
        rep1.pop("wall_time_s")
        rep2.pop("wall_time_s")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    _, rep = run(capsys, ["distill", files["qutrit"], "--eps", "0.0"])
    assert rep["diagnostics"] == {"eig_calls": 2, "path": "closed_form", "band_widenings": 0}
