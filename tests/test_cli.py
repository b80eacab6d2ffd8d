import argparse
import builtins
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dcoh import channels, cli, oracle, rates
from dcoh.channels import channel_to_json, dephasing_channel
from dcoh.states import (PREFIX_SLACK, TRACE_ATOL, max_coherent, pure_to_density, state_from_json,
                         state_to_json)

from helpers import QUTRIT, rand_rho


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
    deph = tmp_path / "deph.json"
    deph.write_text(channel_to_json(dephasing_channel(2)))
    paths["deph"] = str(deph)
    ens = tmp_path / "ens.json"
    ens.write_text(json.dumps({"items": [
        {"prob": 0.5, "state": json.loads(state_to_json(max_coherent(2)))},
        {"prob": 0.5, "state": json.loads(state_to_json(np.array([0, 1, 1]) / np.sqrt(2)))},
    ]}))
    paths["ens"] = str(ens)
    paths["out"] = str(tmp_path / "out.json")
    paths["tmp"] = str(tmp_path)
    return paths


def fill(argv, paths):
    """Replace each "@name" token of an argv template by paths[name]."""
    return [paths[a[1:]] if a.startswith("@") else a for a in argv]


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: {name}")


def strict_loads(text):
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, strict_loads(out) if out else None


def python(*args):
    """Run a Python process that imports dcoh from where this suite imports it."""
    path = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


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

    # a zero prints as 0.0: log2(1) / (alpha - 1) is -0.0 for alpha < 1
    floats = []
    assert cli.main(["monotones", files["flat"]]) == 0
    json.loads(capsys.readouterr().out, parse_float=lambda s: floats.append(s) or float(s))
    assert "-0.0" not in floats and "0.0" in floats


def test_monotones_qutrit_c2(capsys, files):
    code, rep = run(capsys, ["monotones", files["qutrit"]])
    assert code == 0
    c_k = dict(map(tuple, rep["results"]["c_k"]))
    assert abs(c_k[2] - 0.375) < 1e-12
    assert "lp_moduli" not in rep["results"]


def test_a_pure_state_reports_the_same_from_either_document_kind(capsys, files, tmp_path):
    # the pure document and the density document of the same state reach every
    # density-reading command as the same Density
    dm = tmp_path / "qutrit_dm.json"
    dm.write_text(state_to_json(pure_to_density(QUTRIT)))
    commands = [["monotones", "@"], ["distill", "@", "--eps", "0.1"],
                ["distill", "@", "--regime", "zero"], ["distill", "@", "--regime", "asymptotic"],
                ["channel", "--construct", "dilute", "--state", "@", "--m", "3"], ["oracle", "@", "@"]]
    for argv in commands:
        reports = []
        for path in (files["qutrit"], str(dm)):
            code, rep = run(capsys, [path if a == "@" else a for a in argv])
            del rep["inputs"], rep["wall_time_s"]
            reports.append((code, rep))
        assert reports[0] == reports[1], argv


def test_distill_zero_regime(capsys, files):
    code, rep = run(capsys, ["distill", files["qutrit"], "--regime", "zero"])
    assert code == 0
    assert rep["results"]["one_shot_bits"] == 1.0


def test_distill_one_shot_reports_certificates(capsys, files):
    code, rep = run(capsys, ["distill", files["psi2_dm"], "--eps", "0.0"])
    assert code == 0
    assert abs(rep["certificates"]["duality_gap"]) < 1e-6
    assert rep["results"]["eps"] == 0.0


def test_distill_one_shot_certificates_recheck_from_the_report(capsys, tmp_path):
    # the printed t* gives the dual value t*(1 - eps) - Tr(t* rho - dephase(rho))_+
    # with one eigvalsh, and the test accepts rho with weight >= 1 - eps; at eps = 0
    # the closed form's sup is at t -> inf, printed as null
    rng = np.random.default_rng(2424)
    states = [pure_to_density(QUTRIT)] + [rand_rho(rng, d, rank) for d, rank in
                                          ((2, 2), (3, 1), (4, 4), (5, 3), (8, 8), (8, 2))]
    # a near-commuting d = 32 state whose dual at eps = 0.01 stops at a kink with
    # positive eigenvalues inside the zero band: the dual value counts them too
    rng = np.random.default_rng(0)
    tau = rand_rho(rng, 32)
    states.append((1.0 - 1e-9) * np.diag(rng.dirichlet(np.ones(32))) + 1e-9 * tau)
    for i, state in enumerate(states):
        path = tmp_path / f"rho{i}.json"
        path.write_text(state_to_json(state))
        rho = state_from_json(path.read_text())[1].rho
        for eps in (0.0, 1e-6, 0.01, 0.05, 0.3, 0.7):
            code, rep = run(capsys, ["distill", str(path), "--eps", repr(eps)])
            cert = rep["certificates"]
            assert code == 0
            if eps == 0.0:
                assert cert["dual_t"] is None
            else:
                t = cert["dual_t"]
                w = np.linalg.eigvalsh(t * rho - np.diag(rho.diagonal()))
                want = t * (1.0 - eps) - float(w[w > 0.0].sum())
                assert abs(cert["dual_value"] - want) <= 1e-12, (i, eps, cert, want)
            assert cert["test_trace"] >= 1.0 - eps - TRACE_ATOL, (i, eps, cert)


def test_distill_count_just_below_an_integer_matches_prop5(capsys, files, tmp_path):
    # sum_x p_x^2 = 1/(2 - 5e-9): one unit of Psi_2 is 5e-9 out of reach, past
    # the decision slack, so every distill report and the construction say 0 bits
    edge = tmp_path / "edge.json"
    edge.write_text(state_to_json(np.array([0.7071244586350581, 0.7070891032960952])))
    for argv in (["--regime", "zero"], []):
        code, rep = run(capsys, ["distill", str(edge), *argv])
        assert code == 0
        assert rep["results"]["one_shot_bits"] == 0.0
    assert_input_error(capsys, ["channel", "--construct", "prop5", "--state", str(edge),
                                "--target", files["psi2_dm"]], "exceeds")


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
    # psi = (2e-5, sqrt(1 - 4e-10)) has a population below the rank cut; the
    # DIO channel 0.7 X.X + 0.3 dephase maps it to sigma, so the answer is yes
    rho = pure_to_density(np.array([2e-5, math.sqrt(1.0 - 4e-10)]))
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    pair = [Path(files["tmp"]) / "near_cut_rho.json", Path(files["tmp"]) / "near_cut_sigma.json"]
    for path, state in zip(pair, (rho, 0.7 * x @ rho @ x + 0.3 * np.diag(np.diag(rho)))):
        path.write_text(state_to_json(state))
    code, rep = run(capsys, ["decide", "--qubit", *map(str, pair)])
    assert code == 0 and rep["results"]["possible"] is True


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
    # the witness, written out, passes the verifier's own channel checks
    witness = Path(files["tmp"]) / "witness.json"
    witness.write_text(json.dumps(rep["results"]["witness"]))
    code, rep = run(capsys, ["channel", "--verify", str(witness), "--rho", files["qutrit"]])
    assert code == 0 and rep["results"]["rho_dio"] is True
    code, rep = run(capsys, ["oracle", files["flat"], files["psi2_dm"]])
    assert code == 1
    assert rep["results"]["certificate"]["monotone"]
    # R_Delta rises by 1.1e-9, and qubit_decide says no: certified before any
    # search, whose iterate passes the witness checks after 895 iterations
    a, c = 0.5480745210186516, 0.07402242993855838 - 0.2625335343549788j
    pair = []
    for coherence in (c, c * (1.0 + 2.0853585515902604e-09)):
        pair.append(Path(files["tmp"]) / f"qubit{len(pair)}.json")
        pair[-1].write_text(state_to_json(np.array([[a, coherence], [np.conj(coherence), 1 - a]])))
    code, rep = run(capsys, ["oracle", *map(str, pair)])
    assert code == 1 and rep["results"]["certificate"]["monotone"] == "r_delta"
    # each exit code from a real `python -m dcoh.cli` process: a report, the
    # certificate that R_Delta rises from 0 to 1, an undetermined verdict after
    # one of the 171 iterations qutrit -> |+> takes, and an input error
    plus, mixed = files["psi2_dm"], files["flat"]
    for argv, want in ((["monotones", plus], 0), (["oracle", mixed, plus], 1),
                       (["oracle", files["qutrit"], plus, "--max-iters", "1"], 2),
                       (["distill", plus, "--eps", "1"], 3)):
        proc = python("-m", "dcoh.cli", *argv)
        assert proc.returncode == want, (argv, proc.stderr)
        if want == 3:
            assert proc.stdout == "" and proc.stderr == "error: eps must be in [0, 1), got 1.0\n"
            continue
        assert proc.stderr == ""
        results = strict_loads(proc.stdout)["results"]
        if want == 1:
            assert results["certificate"]["monotone"] == "r_delta"
        elif want == 2:
            assert results["status"] == "undetermined" and math.isfinite(results["residual"])


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "density"}')
    code = cli.main(["monotones", str(bad)])
    capsys.readouterr()
    assert code == 3
    code = cli.main(["monotones", str(tmp_path / "missing.json")])
    capsys.readouterr()
    assert code == 3
    bad.write_text('{"kind": "density", "dim": 2, "re": [[1.2, 0], [0, -0.2]], '
                   '"im": [[0, 0], [0, 0]]}')
    assert_input_error(capsys, ["monotones", str(bad)], "error: matrix is not PSD")


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


def test_reported_decision_tolerance_is_the_deciders_slack(capsys, files, monkeypatch):
    monkeypatch.setenv("COHERE_TOL", "1e-6")  # not an option: must change nothing
    for argv in (
        ["monotones", files["qutrit"]],
        ["decide", files["psi2"], files["qutrit"]],
        ["decide", "--qubit", files["psi2_dm"], files["flat"]],
    ):
        _, rep = run(capsys, argv)
        assert rep["tolerances"] == {"decision": PREFIX_SLACK}
    # the qubit decider, construct_prop5 and the oracle's certificate and
    # curve test compare with the same constant, and the rates round every
    # unit count with it
    assert channels.PREFIX_SLACK == oracle.PREFIX_SLACK == rates.PREFIX_SLACK == PREFIX_SLACK


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


def test_oracle_negative_iterations_exit_code(capsys, files):
    q = files["qutrit"]
    assert_input_error(capsys, ["oracle", q, q, "--max-iters", "-3"], "max_iters must be >= 0")


def test_oracle_reports_its_residual_checkpoints(capsys, files):
    # qutrit -> Psi_2 converges after 171 iterations; the trajectory is read at
    # 1, 10, 100 and 1000 and at the last iteration, and stays strict JSON
    q, psi2 = files["qutrit"], files["psi2_dm"]
    code, rep = run(capsys, ["oracle", q, psi2])
    assert code == 0 and "witness" in rep["results"]
    checkpoints = rep["diagnostics"]["residual_checkpoints"]
    iterations = rep["results"]["iterations"]
    assert [k for k, _ in checkpoints] == [1, 10, 100, iterations]
    assert checkpoints[-1][1] == rep["results"]["residual"] <= TRACE_ATOL < checkpoints[0][1]
    code, rep = run(capsys, ["oracle", q, psi2, "--max-iters", "12"])
    assert code == 2
    assert [k for k, _ in rep["diagnostics"]["residual_checkpoints"]] == [1, 10, 12]
    assert rep["diagnostics"]["residual_checkpoints"][-1][1] == rep["results"]["residual"]
    # no iteration, no checkpoint: a certified pair and a zero budget
    for argv in (["oracle", files["flat"], psi2], ["oracle", q, psi2, "--max-iters", "0"]):
        code, rep = run(capsys, argv)
        assert code in (1, 2)
        assert rep["diagnostics"] == {"residual_checkpoints": []}


def test_oracle_reports_a_testing_curve_separation(capsys, tmp_path):
    # no monotone of the family rises from rho to sigma, but sigma's testing
    # curve Tr(X - t dephase(X))_+ rises above rho's: undetermined, with the
    # separating point and no iteration
    rho = np.array([[0.1, -0.2, -0.05], [-0.2, 0.5, -0.05], [-0.05, -0.05, 0.4]])
    sigma = np.array([[0.4, 0.15, -0.2], [0.15, 0.3, -0.1], [-0.2, -0.1, 0.3]])
    paths = []
    for name, x in (("rho", rho), ("sigma", sigma)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(state_to_json(x.astype(complex)))
    code, rep = run(capsys, ["oracle", *map(str, paths)])
    assert code == 2
    assert rep["results"] == {"status": "undetermined", "iterations": 0, "residual": None}
    curve = rep["diagnostics"]["testing_curve"]
    assert rep["diagnostics"] == {"residual_checkpoints": [], "testing_curve": curve}
    t = curve["t"]
    assert curve["h_sigma"] > curve["h_rho"] + 1e-7
    for x, h in ((rho, curve["h_rho"]), (sigma, curve["h_sigma"])):
        trace_norm = np.linalg.svd(x - t * np.diag(np.diag(x)), compute_uv=False).sum()
        assert abs(h - (1.0 - t + trace_norm) / 2) <= 1e-12


def test_oracle_on_a_subnormal_population_warns_nowhere(capsys, tmp_path):
    # rho's first population, 1e-320, is below the smallest normal double: the
    # decisions' kept reading drops it with the report's cut, since its inverse
    # power overflows (and inf * 0 made a nan); the suite turns warnings into errors
    psi = np.array([1e-160, math.sqrt((1 - 1e-320) / 2), math.sqrt((1 - 1e-320) / 2)])
    rho = np.outer(psi, psi)
    swap = np.eye(3)[[1, 0, 2]]
    sigma = 0.7 * swap @ rho @ swap + 0.3 * np.diag(np.diag(rho))
    assert oracle.rho_dio_feasible(rho, sigma, max_iters=0).status == "undetermined"
    paths = [tmp_path / "psi.json", tmp_path / "sigma.json"]
    paths[0].write_text(state_to_json(psi))
    paths[1].write_text(state_to_json(sigma))
    code = cli.main(["oracle", *map(str, paths), "--max-iters", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert strict_loads(captured.out)["results"]["status"] == "undetermined"


def test_memory_error_exit_code(capsys, files, monkeypatch):
    # a unit size whose Choi operator cannot be allocated is an input error,
    # not exit 1 ("no") with a traceback
    def refuse(m, omega):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(cli.ch, "construct_dilute", refuse)
    assert_input_error(capsys, ["channel", "--construct", "dilute", "--state", files["flat"],
                                "--m", "100000"], "Unable to allocate 149. GiB")


def test_distill_eps_beyond_solver_resolution_exit_code(capsys, files):
    # 1 - eps = 1e-12 is within the solver's resolution: floor(2 / (1 - eps)) units
    code, rep = run(capsys, ["distill", files["psi2_dm"], "--eps", "0.999999999999"])
    assert code == 0
    raw = rep["results"]["raw_value"]
    assert abs(raw - math.log2(2.0 / (1.0 - 0.999999999999))) <= 1e-9
    assert rep["results"]["one_shot_bits"] == math.log2(math.floor(2.0 ** raw))
    assert_input_error(capsys, ["distill", files["psi2_dm"], "--eps", "1"], "eps must be in [0, 1)")


def test_emit_refuses_non_finite_values(capsys, monkeypatch, files):
    nan_report = SimpleNamespace(r_delta=math.nan, rel_entropy_bits=0.0, renyi=[], l1=1.0,
                                 c_k=[])
    monkeypatch.setattr(cli.monotones, "monotone_report", lambda rho: nan_report)
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
                                "--heralded", missing],
                       "dcoh decide: argument --heralded: not allowed with argument --qubit")


PURE_PLUS = json.loads(state_to_json(max_coherent(2)))
MALFORMED_ENSEMBLES = {
    "items-int": {"items": 5},
    "item-int": {"items": [1]},
    # a probability is a JSON number: float() would read "1.0" and true
    "prob-str": {"items": [{"prob": "1.0", "state": PURE_PLUS}]},
    "prob-bool": {"items": [{"prob": True, "state": PURE_PLUS}]},
}


@pytest.mark.parametrize("doc", MALFORMED_ENSEMBLES.values(), ids=MALFORMED_ENSEMBLES)
def test_malformed_ensemble_exit_code(capsys, files, tmp_path, doc):
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, ["decide", files["psi2"], "--heralded", str(path)],
                       "malformed ensemble document")


def test_heralded_density_item_exit_code(capsys, files, tmp_path):
    # a pure qubit as a density matrix has unit Frobenius norm, so it passed
    # for four amplitudes before ensemble items had to be pure documents
    item = json.loads(state_to_json(pure_to_density(max_coherent(2))))
    path = tmp_path / "ens.json"
    path.write_text(json.dumps({"items": [{"prob": 1.0, "state": item}]}))
    assert_input_error(capsys, ["decide", files["psi2"], "--heralded", str(path)],
                       "expected a pure state, got 'density'")


OFF_NORM_ARGV = {
    "monotones": ["monotones", "@off"],
    "decide-pure": ["decide", "@off", "@psi2"],
    "decide-qubit": ["decide", "--qubit", "@off", "@flat"],
    "decide-heralded-item": ["decide", "@psi2", "--heralded", "@off_ens"],
    "distill": ["distill", "@off"],
}


@pytest.mark.parametrize("argv", OFF_NORM_ARGV.values(), ids=OFF_NORM_ARGV)
def test_pure_documents_are_refused_by_their_squared_norm(capsys, files, tmp_path, argv):
    # every later check bounds |psi|^2 (a trace, a probability sum), so the
    # parse bounds it too: |psi| = 1 + 0.9e-9 fails there, 1 + 0.4e-9 passes
    for scale, refused in ((1.0 + 0.9e-9, True), (1.0 - 0.9e-9, True), (1.0 + 0.4e-9, False)):
        off = json.loads(state_to_json(max_coherent(2) * scale))
        (tmp_path / "off.json").write_text(json.dumps(off))
        (tmp_path / "off_ens.json").write_text(
            json.dumps({"items": [{"prob": 1.0, "state": off}]}))
        paths = {**files, "off": str(tmp_path / "off.json"),
                 "off_ens": str(tmp_path / "off_ens.json")}
        if refused:
            assert_input_error(capsys, fill(argv, paths), "error: squared norm is")
        else:
            assert run(capsys, fill(argv, paths))[0] in (0, 1)


DEPH = json.loads(channel_to_json(dephasing_channel(2)))


def _kraus(first):
    """The dephasing channel's Kraus list with its first operator's re replaced."""
    return [{"re": first, "im": [[0, 0], [0, 0]]}, {"re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}]


MALFORMED_CHANNEL_FIELDS = {
    "kraus-int": ("kraus", 5),
    "kraus-item-int": ("kraus", [1]),
    # dimensions are JSON integers: int() would read each of these as 2 or 1
    "din-float": ("din", 2.9),
    "dout-str": ("dout", "2"),
    "din-bool": ("din", True),
    # so are matrix entries, as in a state document
    "choi-str": ("choi_re", [[str(x) for x in row] for row in DEPH["choi_re"]]),
    "choi-bool": ("choi_im", [[False] * 4] * 4),
    "choi-mixed": ("choi_re", [[True] + row[1:] for row in DEPH["choi_re"]]),
    "choi-ragged": ("choi_re", DEPH["choi_re"][:3] + [DEPH["choi_re"][3][:3]]),
    "kraus-str": ("kraus", _kraus([["1", 0], [0, 0]])),
    "kraus-bool": ("kraus", _kraus([[True, False], [False, False]])),
    "kraus-mixed": ("kraus", _kraus([[True, 0.0], [0.0, 0.0]])),
    "kraus-ragged": ("kraus", _kraus([[1.0, 0.0], [0.0]])),
}


@pytest.mark.parametrize("key, value", MALFORMED_CHANNEL_FIELDS.values(),
                         ids=MALFORMED_CHANNEL_FIELDS)
def test_malformed_channel_exit_code(capsys, tmp_path, key, value):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(dict(DEPH, **{key: value})))
    assert_input_error(capsys, ["channel", "--verify", str(path)], "malformed channel document")


PLUS_DM = json.loads(state_to_json(pure_to_density(max_coherent(2))))
# matrix entries are JSON numbers: np.asarray read "0.5" as 0.5 and true as
# 1.0, so a density document with false off-diagonals passed
MALFORMED_STATE_ENTRIES = {
    "density-str": (PLUS_DM, "re", [["0.5", "0.5"], ["0.5", "0.5"]]),
    "density-bool": (PLUS_DM, "im", [[False, False], [False, False]]),
    "density-mixed": (PLUS_DM, "re", [[0.5, True], [0.5, 0.5]]),
    "density-ragged": (PLUS_DM, "re", [[0.5, 0.5], [0.5]]),
    "pure-str": (PURE_PLUS, "re", ["0.7071067811865475", 0.7071067811865475]),
    "pure-bool": (PURE_PLUS, "im", [False, False]),
    "pure-mixed": (PURE_PLUS, "re", [True, 0.0]),
    "pure-ragged": (PURE_PLUS, "re", [[0.7071067811865475], 0.7071067811865475]),
}


@pytest.mark.parametrize("doc, key, value", MALFORMED_STATE_ENTRIES.values(),
                         ids=MALFORMED_STATE_ENTRIES)
def test_malformed_state_entries_exit_code(capsys, tmp_path, doc, key, value):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(dict(doc, **{key: value})))
    assert_input_error(capsys, ["monotones", str(path)], "malformed state document")


# json.loads reads Infinity, -Infinity and NaN, and 1e999 as inf; an integer
# past the float range overflows the conversion to float
NON_FINITE_ENTRIES = ["Infinity", "-Infinity", "NaN", "1e999", "1" + "0" * 400]


@pytest.mark.parametrize("entry", NON_FINITE_ENTRIES,
                         ids=["Infinity", "-Infinity", "NaN", "1e999", "int-1e400"])
@pytest.mark.parametrize("argv, doc, key", [(["monotones"], PLUS_DM, "re"),
                                            (["channel", "--verify"], DEPH, "choi_re")],
                         ids=["state", "channel"])
def test_non_finite_entries_exit_3_with_one_line(capsys, tmp_path, argv, doc, key, entry):
    path = tmp_path / "doc.json"
    rows = [["@"] + row[1:] for row in doc[key]]
    path.write_text(json.dumps(dict(doc, **{key: rows})).replace('"@"', entry))
    assert_input_error(capsys, [*argv, str(path)], f"{key} holds a number that is infinite")


@pytest.mark.parametrize("din, dout", [(2, 3), (-2, -2)])
def test_channel_dimensions_that_do_not_fit_the_choi_exit_code(capsys, tmp_path, din, dout):
    # a 4x4 Choi operator: (2, 3) failed a reshape, (-2, -2) reshaped with two -1s
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(dict(DEPH, din=din, dout=dout)))
    assert_input_error(capsys, ["channel", "--verify", str(path)],
                       f"din {din} and dout {dout} must be at least 1")


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
        assert sorted(diag) == ["eig_calls", "path"]
        assert diag["path"] in ("kink", "smooth")
        assert diag["eig_calls"] >= 3
        rep1.pop("wall_time_s")
        rep2.pop("wall_time_s")
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    _, rep = run(capsys, ["distill", files["qutrit"], "--eps", "0.0"])
    assert rep["diagnostics"] == {"eig_calls": 1, "path": "closed_form"}


def test_channel_kraus_contradicting_choi_exit_code(capsys, tmp_path):
    doc = json.loads(channel_to_json(dephasing_channel(2)))
    doc["kraus"] = [{"re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()}]
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, ["channel", "--verify", str(path)],
                       "stored Kraus operators do not match the Choi operator")


def test_channel_verify_refuses_choi_asymmetry_past_herm_atol(capsys, tmp_path):
    # 5e-9 between J and J^dag: the Choi operator is checked at HERM_ATOL, like a state
    doc = json.loads(channel_to_json(dephasing_channel(2)))
    doc["choi_re"][0][1] = 5e-9
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, ["channel", "--verify", str(path)], "error: matrix is not Hermitian")


# one argv per subcommand and mode, with the flags that mode reads
MODES = {
    "monotones": ["monotones", "@qutrit"],
    "distill-one-shot": ["distill", "@qutrit", "--eps", "0.1"],
    "distill-zero": ["distill", "@qutrit", "--regime", "zero"],
    "distill-asymptotic": ["distill", "@qutrit", "--regime", "asymptotic"],
    "decide-pure": ["decide", "@qutrit", "@psi2"],
    "decide-qubit": ["decide", "--qubit", "@psi2_dm", "@flat"],
    "decide-heralded": ["decide", "@psi2", "--heralded", "@ens"],
    "construct-distill": ["channel", "--construct", "distill", "--state", "@qutrit", "--m", "2",
                          "--out", "@out"],
    "construct-dilute": ["channel", "--construct", "dilute", "--state", "@psi2_dm", "--m", "2",
                         "--out", "@out"],
    "construct-prop5": ["channel", "--construct", "prop5", "--state", "@qutrit",
                        "--target", "@psi2_dm", "--out", "@out"],
    "verify": ["channel", "--verify", "@deph", "--rho", "@psi2_dm"],
    "oracle": ["oracle", "@qutrit", "@psi2_dm"],
}


@pytest.mark.parametrize("argv", MODES.values(), ids=MODES.keys())
def test_success_reports_share_one_envelope(capsys, files, argv):
    argv = fill(argv, files)
    code, rep = run(capsys, argv)
    assert code in (0, 1, 2)
    envelope = {"command", "inputs", "results", "tolerances", "wall_time_s"}
    assert envelope <= set(rep) <= envelope | {"mode", "certificates", "diagnostics"}
    assert rep["command"] == argv[0]
    inputs = [a for a in argv if a.startswith(files["tmp"]) and a != files["out"]]
    with_hash = [
        {"path": p, "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()} for p in inputs
    ]
    assert rep["inputs"] == with_hash


def test_inputs_hash_the_bytes_that_were_parsed(capsys, files, tmp_path):
    # --out over the input file: the report hashes the state it read, not
    # the channel written over it afterwards
    state = tmp_path / "state.json"
    state.write_bytes(Path(files["psi2_dm"]).read_bytes())
    read = hashlib.sha256(state.read_bytes()).hexdigest()
    code, rep = run(capsys, ["channel", "--construct", "dilute", "--state", str(state),
                             "--m", "2", "--out", str(state)])
    assert code == 0
    assert hashlib.sha256(state.read_bytes()).hexdigest() != read  # now the channel
    assert rep["inputs"] == [{"path": str(state), "sha256": read}]
    # test_success_reports_share_one_envelope checks the hashes of every
    # mode's untouched inputs, the heralded ensemble included


@pytest.mark.parametrize("argv", MODES.values(), ids=MODES.keys())
def test_each_input_is_opened_once(capsys, files, argv, monkeypatch):
    opened = []
    builtin_open = builtins.open

    def recording_open(path, *args, **kwargs):
        opened.append(str(path))
        return builtin_open(path, *args, **kwargs)

    argv = fill(argv, files)
    monkeypatch.setattr(builtins, "open", recording_open)
    code = cli.main(argv)
    monkeypatch.undo()
    rep = strict_loads(capsys.readouterr().out)
    assert code in (0, 1, 2)
    reads = [p for p in opened if p.startswith(files["tmp"]) and p != files["out"]]
    assert reads == [entry["path"] for entry in rep["inputs"]]
    assert len(set(reads)) == len(reads)


BAD_DOCS = {
    "state": {
        "malformed": '{"kind": "density", "dim": 2, "re": [[1, 0], [0',
        "non-finite": '{"kind": "density", "dim": 2, "re": [[NaN, 0], [0, NaN]], '
                      '"im": [[0, 0], [0, 0]]}',
        "wrong-kind": channel_to_json(dephasing_channel(2)),
        "wrong-type": '{"kind": "density", "dim": 2.5, "re": [[1, 0], [0, 0]], '
                      '"im": [[0, 0], [0, 0]]}',
    },
    "channel": {
        "malformed": '{"kind": "channel", "din": 2}',
        "non-finite": channel_to_json(dephasing_channel(2)).replace("1.0", "NaN", 1),
        "wrong-kind": state_to_json(max_coherent(2)),
        "wrong-type": channel_to_json(dephasing_channel(2)).replace('"dout": 2', '"dout": "2"'),
    },
    "ensemble": {
        "malformed": '{"items": 5}',
        "non-finite": json.dumps({"items": [{"prob": math.nan,
                                             "state": json.loads(state_to_json(max_coherent(2)))}]}),
        "wrong-kind": state_to_json(max_coherent(2)),
        "wrong-type": json.dumps({"items": [{"prob": "1.0", "state": PURE_PLUS}]}),
    },
}
# what the stderr line says about each wrong-kind document; an ensemble
# document has no kind field
WRONG_KIND_ERROR = {
    "state": "expected a density or pure state document, got kind 'channel'",
    "channel": "expected a channel document, got kind 'pure'",
    "ensemble": "malformed ensemble document",
}
# (mode, the argv slot that gets the bad document, what that slot expects)
BAD_SLOTS = [
    ("monotones", 1, "state"),
    ("distill-one-shot", 1, "state"),
    ("distill-zero", 1, "state"),
    ("distill-asymptotic", 1, "state"),
    ("decide-pure", 1, "state"),
    ("decide-qubit", 2, "state"),
    ("decide-heralded", 1, "state"),
    ("decide-heralded", 3, "ensemble"),
    ("construct-distill", 4, "state"),
    ("construct-dilute", 4, "state"),
    ("construct-prop5", 4, "state"),
    ("construct-prop5", 6, "state"),
    ("verify", 2, "channel"),
    ("verify", 4, "state"),
    ("oracle", 2, "state"),
]


@pytest.mark.parametrize("problem", ["malformed", "non-finite", "wrong-kind", "wrong-type"])
@pytest.mark.parametrize("mode, slot, expects", BAD_SLOTS,
                         ids=[f"{m}-{slot}" for m, slot, _ in BAD_SLOTS])
def test_bad_documents_exit_3_in_every_mode(capsys, files, mode, slot, expects, problem):
    bad = files["tmp"] + "/bad.json"
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write(BAD_DOCS[expects][problem])
    argv = fill(MODES[mode], files)
    argv[slot] = bad
    assert_input_error(capsys, argv, WRONG_KIND_ERROR[expects] if problem == "wrong-kind" else "")
    assert not Path(files["out"]).exists()


UNREAD_FLAGS = [
    (["distill", "@qutrit", "--regime", "zero", "--eps", "1.5"], "eps"),
    (["distill", "@qutrit", "--regime", "asymptotic", "--eps", "0"], "eps"),
    (["channel", "--verify", "@deph", "--out", "@tmp"], "out"),
    (["channel", "--verify", "@deph", "--m", "3"], "m"),
    (["channel", "--verify", "@deph", "--state", "@qutrit"], "state"),
    (["channel", "--verify", "@deph", "--target", "@qutrit"], "target"),
    (["channel", "--construct", "distill", "--state", "@qutrit", "--rho", "@qutrit"], "rho"),
    (["channel", "--construct", "dilute", "--state", "@psi2_dm", "--rho", "@qutrit"], "rho"),
    (["channel", "--construct", "distill", "--state", "@qutrit", "--target", "@psi2_dm"], "target"),
    (["channel", "--construct", "dilute", "--state", "@psi2_dm", "--target", "@psi2_dm"], "target"),
    (["channel", "--construct", "prop5", "--state", "@qutrit", "--target", "@psi2_dm",
      "--m", "0"], "m"),
]


@pytest.mark.parametrize("argv, flag", UNREAD_FLAGS, ids=[" ".join(a) for a, _ in UNREAD_FLAGS])
def test_flags_a_mode_does_not_read_are_rejected(capsys, files, argv, flag):
    assert_input_error(capsys, fill(argv, files), f"mode does not read --{flag}")


def test_modes_default_the_flags_they_read(capsys, files):
    _, given = run(capsys, ["distill", files["psi2_dm"], "--eps", "0.0"])
    _, default = run(capsys, ["distill", files["psi2_dm"]])
    assert given["results"] == default["results"] and default["results"]["eps"] == 0.0
    argv = ["channel", "--construct", "distill", "--state", files["qutrit"]]
    _, given = run(capsys, argv + ["--m", "2"])
    _, default = run(capsys, argv)
    assert given["results"] == default["results"]


# argparse's own usage errors: exit 3 with one stderr line, like every other input
# error, naming the parser (`dcoh` or `dcoh <sub>`) that rejected the input
USAGE_ERRORS = {
    "eps-not-a-float": (["distill", "@qutrit", "--eps", "abc"],
                        "dcoh distill: argument --eps: invalid float value: 'abc'"),
    "max-iters-not-an-int": (["oracle", "@qutrit", "@qutrit", "--max-iters", "x"],
                             "dcoh oracle: argument --max-iters: invalid int value: 'x'"),
    "oracle-missing-sigma": (["oracle", "@qutrit"],
                             "dcoh oracle: the following arguments are required: sigma"),
    "unknown-regime": (["distill", "@qutrit", "--regime", "bogus"],
                       "dcoh distill: argument --regime: invalid choice: 'bogus'"),
    "unknown-subcommand": (["bogus"], "dcoh: argument command: invalid choice: 'bogus'"),
    "no-arguments": ([], "dcoh: the following arguments are required: command"),
    "unknown-flag": (["monotones", "@qutrit", "--bogus"], "dcoh: unrecognized arguments: --bogus"),
    "channel-without-mode": (["channel", "--state", "@qutrit"],
                             "dcoh channel: one of the arguments --construct --verify is required"),
    "construct-and-verify": (["channel", "--construct", "distill", "--verify", "@deph"],
                             "dcoh channel: argument --verify: not allowed with argument"),
}


@pytest.mark.parametrize("argv, match", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_exit_3_with_one_line(capsys, files, argv, match):
    assert_input_error(capsys, fill(argv, files), match)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dcoh")


def test_parser_is_built_once_per_process(capsys, files, monkeypatch):
    # importing the module builds nothing: the parser is made on the first call
    probe = "import dcoh.cli; assert dcoh.cli._parser.cache_info().currsize == 0"
    proc = python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    run(capsys, fill(MODES["monotones"], files))  # warm-up
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for name in ("monotones", "distill-zero", "decide-pure", "verify"):
        code, _ = run(capsys, fill(MODES[name], files))
        assert code in (0, 1)
    assert_input_error(capsys, fill(USAGE_ERRORS["eps-not-a-float"][0], files), "invalid float")
    assert built == []


def test_main_reads_the_handler_at_call_time(capsys, files, monkeypatch):
    # a handler rebound after the parser is built is the one that runs, so a
    # wrapper set on the module (as the bench tracer sets one) sees each call
    run(capsys, fill(MODES["monotones"], files))  # the parser exists from here on
    seen = []
    original = cli.cmd_monotones

    def recorder(args):
        seen.append(args.state)
        return original(args)

    monkeypatch.setattr(cli, "cmd_monotones", recorder)
    code, rep = run(capsys, ["monotones", files["qutrit"]])
    assert code == 0 and rep["command"] == "monotones"
    assert seen == [files["qutrit"]]


def test_every_subcommand_has_its_handler():
    # `main` finds the handler by name, so a subparser without its cmd_* would
    # fail only when called; this names the gap at test time instead
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"monotones", "distill", "decide", "channel", "oracle"}
    for name in sub.choices:
        assert callable(getattr(cli, f"cmd_{name}"))


def test_usage_errors_leave_the_cached_parser_intact(capsys, files):
    # two commands whose absent flags `main` defaults (--eps 0, --m 2)
    argvs = [["distill", files["psi2_dm"]],
             ["channel", "--construct", "distill", "--state", files["qutrit"]]]
    before = [run(capsys, argv) for argv in argvs]
    for argv, match in USAGE_ERRORS.values():
        assert_input_error(capsys, fill(argv, files), match)
    after = [run(capsys, argv) for argv in argvs]
    for (code1, rep1), (code2, rep2) in zip(before, after):
        rep1.pop("wall_time_s")
        rep2.pop("wall_time_s")
        assert code1 == code2 == 0 and rep1 == rep2
