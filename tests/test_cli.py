import json
import math

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


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


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
