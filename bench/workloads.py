"""The four benchmark workloads: seeded inputs, the call into dcoh, and its check.

A workload builds one *round*: a fixed list of instances made from the
seed. The runner repeats whole rounds, so every run of a seed does the
same mix of work whatever its length. Every instance calls dcoh through
its module attributes (``pkg.rates.dilute_one_shot_bounds``), so the
tracer's rebinding is seen, and every output is checked with the numpy
code in ``checks.py``.
"""

from __future__ import annotations

import io
import json
import math
import os
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks as ck
from checks import require

# Random oracle pairs split three ways (certified, feasible, undetermined)
# with a share that varies strongly from one random set to the next, so
# they are drawn from this fixed seed; ROADMAP item 5 is judged on the
# undetermined share "on a fixed qutrit set". --seed draws everything else.
ORACLE_POOL_SEED = 7
# dcoh's fidelity overestimates by up to ~2e-8 on rank-deficient states, so
# its dilution witnesses can miss 1 - eps by that much; a shortfall above
# this tolerance is a wrong answer, and the worst one is always reported.
FIDELITY_TOL = 1e-7


class BadOutput(Exception):
    """A CLI run that crashed its contract: wrong exit code or non-strict JSON."""


@dataclass
class Instance:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Stats:
    """Outcome tallies that workload checks add to, across all rounds."""

    verdicts: Counter = field(default_factory=Counter)
    widths: list = field(default_factory=list)
    fidelity_shortfall: float = 0.0


def rand_rho(rng, d: int, rank: int | None = None) -> np.ndarray:
    rank = d if rank is None else rank
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def rand_pure(rng, d: int) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


# --- dilution_brackets -------------------------------------------------------

def dilution_brackets(pkg, seed: int, workdir: str, stats: Stats):
    rng = np.random.default_rng(seed)
    round_ = []
    for d in (2, 3, 4, 5):
        for rank in (d, max(1, d // 2)):
            rho = rand_rho(rng, d, rank)
            for eps in (0.0, 0.01, 0.05, 0.1):
                round_.append(_bracket(pkg, rho, eps, stats, f"d{d}r{rank}e{eps}"))
    return round_, [round_[0], round_[2]]


def _bracket(pkg, rho, eps, stats, label):
    def call():
        return pkg.rates.dilute_one_shot_bounds(rho, eps)

    def check(out):
        lo, hi = out
        lam0 = ck.r_delta_plus_one(rho)
        for r in (lo, hi):
            require(math.isfinite(r.raw_value) and r.raw_value >= -1e-9, "raw bound below 0 bits")
            units = 2.0 ** r.one_shot_bits
            require(abs(units - round(units)) <= 1e-9 and
                    round(units) in ck.guarded_int(2.0 ** r.raw_value), "one-shot bits not log2 of ceil")
        require(lo.raw_value <= hi.raw_value + 1e-12, "lower bound above upper bound")
        require(lo.one_shot_bits <= hi.one_shot_bits, "lower unit count above upper")
        require(hi.raw_value <= math.log2(lam0) + 1e-9, "upper bound above the zero-error cost")
        if eps == 0.0:
            require(lo.raw_value == hi.raw_value, "eps = 0 bracket does not collapse")
            require(round(2.0 ** hi.one_shot_bits) in ck.guarded_int(lam0),
                    "eps = 0 cost is not ceil(R_Delta + 1)")
            return
        stats.widths.append(hi.raw_value - lo.raw_value)
        if lam0 - 1.0 > 1e-6:
            # the upper bound is the cost of w_t = (1-t) rho + t dephase(rho);
            # recover t from it and re-check that w_t meets the fidelity bound
            unit = 2.0 ** hi.raw_value
            t = (lam0 - unit) / (lam0 - 1.0)
            require(-1e-9 <= t <= 1.0 + 1e-9, "upper bound is not on the witness family")
            omega = (1.0 - t) * rho + t * ck.dephase(rho)
            shortfall = 1.0 - eps - ck.fidelity(rho, omega)
            stats.fidelity_shortfall = max(stats.fidelity_shortfall, shortfall)
            require(shortfall <= FIDELITY_TOL, "upper-bound witness misses 1 - eps")
            require(abs(ck.r_delta_plus_one(omega) - unit) <= 1e-7 * unit, "witness cost != upper bound")

    return Instance(label, call, check)


# --- np_duals ----------------------------------------------------------------

def np_duals(pkg, seed: int, workdir: str, stats: Stats):
    rng = np.random.default_rng(seed)
    round_ = []
    for d in (8, 16, 32):
        for rank in (d, d // 2):
            rho = rand_rho(rng, d, rank)
            eps = float(rng.choice([0.01, 0.05, 0.1]))
            m = int(rng.integers(2, d + 1))
            round_.append(_dh(pkg, rho, eps, f"dh-d{d}r{rank}"))
            round_.append(_fidelity_program(pkg, rho, m, f"fid-d{d}r{rank}"))
    return round_, round_[:2]


def _dh(pkg, rho, eps, label):
    delta = ck.dephase(rho)
    return Instance(label, lambda: pkg.hypotest.dh_epsilon(rho, delta, eps),
                    lambda out: ck.check_dh(out, rho, eps))


def _fidelity_program(pkg, rho, m, label):
    return Instance(label, lambda: pkg.hypotest.distill_fidelity_program(rho, m),
                    lambda out: ck.check_fidelity_program(out, rho, m))


# --- oracle_pairs ------------------------------------------------------------

def oracle_pairs(pkg, seed: int, workdir: str, stats: Stats):
    pool = np.random.default_rng(ORACLE_POOL_SEED)
    pairs = [(rand_rho(pool, d), rand_rho(pool, d), False, f"rand-d{d}")
             for d in (3, 4) for _ in range(24)]
    rng = np.random.default_rng(seed)
    for d, count in ((6, 3), (8, 3)):
        for k in range(count):
            # feasible by construction: permute, then mix with the dephased input
            rho = rand_rho(rng, d, d if k % 2 == 0 else d // 2)
            perm = np.eye(d)[rng.permutation(d)]
            p = float(rng.uniform(0.1, 0.9))
            sigma = (1.0 - p) * perm @ rho @ perm.T + p * ck.dephase(rho)
            pairs.append((rho, sigma, True, f"constructed-d{d}"))
    round_ = [_oracle(pkg, *pair, stats) for pair in pairs]
    # warm-up, the same for every seed: an identity pair (feasible) and
    # incoherent -> coherent (certified)
    rho = pairs[0][0]
    warm = [_oracle(pkg, rho, rho, True, "warm", Stats()),
            _oracle(pkg, ck.dephase(rho), rho, False, "warm", Stats())]
    return round_, warm


def _oracle(pkg, rho, sigma, feasible_by_construction, label, stats):
    def call():
        return pkg.oracle.rho_dio_feasible(rho, sigma)

    def check(v):
        stats.verdicts[v.status] += 1
        if v.status == "feasible":
            require(v.witness is not None and v.certificate is None, "feasible without a witness")
            w = v.witness
            ck.check_witness(w.choi, w.input_dim, w.output_dim, rho, sigma)
        elif v.status == "infeasible-certified":
            require(not feasible_by_construction, "feasible-by-construction pair certified infeasible")
            require(v.witness is None and v.certificate is not None, "infeasible without a certificate")
            name, v_in, v_out = v.certificate
            own_in, own_out = ck.monotone(name, rho), ck.monotone(name, sigma)
            require(own_out > own_in, f"monotone {name} does not increase")
            require(abs(own_in - v_in) <= 1e-6 * max(1.0, abs(own_in)) and
                    abs(own_out - v_out) <= 1e-6 * max(1.0, abs(own_out)),
                    f"certificate values for {name} do not match")
        else:
            require(v.status == "undetermined", f"unknown status {v.status!r}")
            require(v.witness is None and v.certificate is None, "undetermined carries a verdict")

    return Instance(label, call, check)


# --- cli_batch ---------------------------------------------------------------

def _reject_constant(name):
    raise BadOutput(f"stdout is not strict JSON ({name})")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise BadOutput(f"stdout is not JSON: {exc}") from None


def write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def state_doc(arr) -> dict:
    arr = np.asarray(arr, dtype=complex)
    return {"kind": "pure" if arr.ndim == 1 else "density", "dim": arr.shape[0],
            "re": arr.real.tolist(), "im": arr.imag.tolist()}


def read_channel(path: str):
    with open(path, encoding="utf-8") as fh:
        doc = strict_json(fh.read())
    choi = np.asarray(doc["choi_re"]) + 1j * np.asarray(doc["choi_im"])
    return choi, int(doc["din"]), int(doc["dout"])


def _close(a, b, tol=1e-7) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def cli_batch(pkg, seed: int, workdir: str, stats: Stats):
    rng = np.random.default_rng(seed)

    def path(name):
        return os.path.join(workdir, name)

    def state(name, arr):
        return write_json(path(name), state_doc(arr))

    rho3 = rand_rho(rng, 3)
    rho3_def = rand_rho(rng, 3, 2)
    psi3, phi3 = rand_pure(rng, 3), rand_pure(rng, 3)
    q_rho, q_sigma = rand_rho(rng, 2), rand_rho(rng, 2)
    eta = float(rng.uniform(0.2, 0.8))
    branches = [rand_pure(rng, 2), rand_pure(rng, 3)]
    omega = rand_rho(rng, 3)
    m_dil = max(2, math.ceil(ck.r_delta_plus_one(omega) - 1e-9))
    psi_m = np.full(m_dil, 1.0 / math.sqrt(m_dil), dtype=complex)
    # prop5 target: R_Delta(target) + 1 = 1 + 0.8 (lam - 1), inside the bound lam
    rho_p = np.outer(psi3, psi3.conj())
    lam = 1.0 / float(np.sum(np.abs(psi3) ** 4))
    w0 = rand_rho(rng, 3)
    unit0, goal = ck.r_delta_plus_one(w0), 1.0 + 0.8 * (lam - 1.0)
    q = 0.0 if unit0 <= goal else (unit0 - goal) / (unit0 - 1.0)
    target = (1.0 - q) * w0 + q * ck.dephase(w0)
    eps = float(rng.choice([0.01, 0.05, 0.1]))

    f = {
        "rho3": state("rho3.json", rho3), "rho3_def": state("rho3_def.json", rho3_def),
        "psi3": state("psi3.json", psi3), "phi3": state("phi3.json", phi3),
        "q_rho": state("q_rho.json", q_rho), "q_sigma": state("q_sigma.json", q_sigma),
        "omega": state("omega.json", omega),
        "target": state("target.json", target),
        "ens": write_json(path("ens.json"), {"items": [
            {"prob": eta, "state": state_doc(branches[0])},
            {"prob": 1.0 - eta, "state": state_doc(branches[1])}]}),
        "ch_distill": path("ch_distill.json"), "ch_dilute": path("ch_dilute.json"),
        "ch_prop5": path("ch_prop5.json"),
    }
    bad = {
        "syntax": '{"kind": "density", "dim": 2, "re": [[1, 0], [0',
        "missing_key": {"kind": "density", "dim": 2, "re": [[1, 0], [0, 0]]},
        "non_hermitian": state_doc(np.array([[0.5, 0.4], [0.1, 0.5]])),
        "trace_two": state_doc(np.eye(2)),
        "not_psd": state_doc(np.array([[1.2, 0.0], [0.0, -0.2]])),
        "dim_mismatch": {**state_doc(np.eye(2) / 2), "dim": 3},
        "unknown_kind": {**state_doc(np.eye(2) / 2), "kind": "mixed"},
        "nan": '{"kind": "density", "dim": 2, "re": [[NaN, 0], [0, NaN]], "im": [[0, 0], [0, 0]]}',
        "not_tp": {"kind": "channel", "din": 2, "dout": 2,
                   "choi_re": (0.3 * np.eye(4)).tolist(), "choi_im": np.zeros((4, 4)).tolist()},
    }
    for name, doc in bad.items():
        f[name] = write_json(path(f"bad_{name}.json"), doc)

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = pkg.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    def case(label, argv, check):
        return Instance(label, lambda: run(argv), lambda out: check(*out))

    def ok(expect_code=0):
        def wrap(inner):
            def check(code, text):
                doc = strict_json(text)
                require(code == expect_code, f"exit code {code}")
                inner(doc["results"], doc)
            return check
        return wrap

    def monotones_check(rho, psi=None):
        def inner(res, doc):
            require(_close(res["r_delta"], ck.r_delta_plus_one(rho) - 1.0), "r_delta")
            require(_close(res["rel_entropy_bits"], ck.rel_entropy_coherence(rho)), "rel entropy")
            require(_close(res["l1"], float(np.sum(np.abs(rho)))), "l1 norm")
            for alpha, value in res["renyi"]:
                require(_close(value, ck.renyi_relative(rho, alpha), 1e-6), f"renyi {alpha}")
            if psi is not None:
                p = np.sort(np.abs(psi) ** 2)[::-1]
                for k, value in res["c_k"]:
                    require(_close(value, float(np.sum(p[k - 1:]))), f"c_{k}")
        return ok()(inner)

    def distill_one_shot(res, doc):
        cert = doc["certificates"]
        require(abs(cert["duality_gap"]) <= 1e-6, "duality gap")
        require(abs(2.0 ** -res["raw_value"] - cert["dual_value"]) <= 1e-6, "dual value off the optimum")
        require(res["raw_value"] >= -1e-9, "negative yield")
        units = 2.0 ** res["one_shot_bits"]
        require(round(units) in ck.guarded_int(2.0 ** res["raw_value"]), "yield is not log2 floor")

    def distill_zero(res, doc):
        pi = ck.psd_power(rho3_def, 0.0)
        raw = -math.log2(float(np.trace(pi @ ck.dephase(rho3_def)).real))
        require(_close(res["raw_value"], raw), "raw rate")
        units = 2.0 ** res["one_shot_bits"]
        require(round(units) in ck.guarded_int(2.0 ** raw) and abs(units - round(units)) <= 1e-9,
                "one-shot bits are not log2 of an integer")

    def distill_asym(res, doc):
        require(_close(res["raw_value"], ck.rel_entropy_coherence(rho3)), "relative entropy")

    pure_possible = ck.majorizes(np.abs(phi3) ** 2, np.abs(psi3) ** 2)
    mix = np.zeros(3)
    for w, b in ((eta, branches[0]), (1.0 - eta, branches[1])):
        mix += w * np.pad(np.sort(np.abs(b) ** 2)[::-1], (0, 3 - len(b)))
    heralded_possible = ck.majorizes(mix, np.abs(psi3) ** 2)
    qubit_possible = (ck.r_delta_plus_one(q_rho) >= ck.r_delta_plus_one(q_sigma) - 1e-9
                      and np.sum(np.abs(q_rho)) >= np.sum(np.abs(q_sigma)) - 1e-9)

    def decision(expected):
        return ok(0 if expected else 1)(
            lambda res, doc: require(res["possible"] is expected, "wrong decision"))

    def dio_flag(res, choi, din, dout):
        viol = ck.dio_violation(choi, din, dout)
        if viol <= 1e-9 or viol >= 1e-7:
            require(res["dio"] is (viol <= 1e-9), "dio flag disagrees with the Choi check")

    def constructed(name, extra):
        def inner(res, doc):
            choi, din, dout = read_channel(f[name])
            ck.check_cptp(choi, din, dout, 1e-8)
            dio_flag(res, choi, din, dout)
            extra(res, choi, din, dout)
        return ok()(inner)

    def distill_channel(res, choi, din, dout):
        psi2 = np.full(2, 1.0 / math.sqrt(2.0))
        fid = float((psi2.conj() @ ck.apply_choi(choi, din, dout, rho3) @ psi2).real)
        require(_close(res["fidelity"], fid), "reported fidelity is not <Psi_m|L(rho)|Psi_m>")
        require(abs(res["duality_gap"]) <= 1e-6, "duality gap")
        require(ck.rho_dio_violation(choi, din, dout, rho3) <= 1e-8, "not covariant on rho")

    def dilute_channel(res, choi, din, dout):
        image = ck.apply_choi(choi, din, dout, np.outer(psi_m, psi_m.conj()))
        require(float(np.linalg.norm(image - omega)) <= 1e-8, "Psi_m does not map to omega")

    def prop5_channel(res, choi, din, dout):
        require(float(np.linalg.norm(ck.apply_choi(choi, din, dout, rho_p) - target)) <= 1e-8,
                "rho does not map to the target")
        require(ck.rho_dio_violation(choi, din, dout, rho_p) <= 1e-8, "not covariant on rho")

    def verify(name, rho_in):
        def check(code, text):
            doc = strict_json(text)
            res = doc["results"]
            choi, din, dout = read_channel(f[name])
            viol = (ck.dio_violation(choi, din, dout) if rho_in is None
                    else ck.rho_dio_violation(choi, din, dout, rho_in))
            if viol <= 1e-9 or viol >= 1e-7:
                require(code == (0 if viol <= 1e-9 else 1), f"exit code {code}")
            require(res["cptp"] is True, "verified channel not reported CPTP")
            dio_flag(res, choi, din, dout)
        return check

    def rejected(code, text):
        if code != 3:
            raise BadOutput(f"exit code {code!r}, expected 3")
        if text.strip():
            strict_json(text)

    def zero_iterations(code, text):
        # either refuse the argument, or answer "undetermined" in strict JSON
        if code == 3:
            return rejected(code, text)
        doc = strict_json(text)
        if code != 2 or doc["results"]["status"] != "undetermined":
            raise BadOutput(f"exit code {code!r} for --max-iters 0")

    round_ = [
        case("monotones", ["monotones", f["rho3"]], monotones_check(rho3)),
        case("monotones-pure", ["monotones", f["psi3"]], monotones_check(np.outer(psi3, psi3.conj()), psi3)),
        case("distill-one-shot", ["distill", f["rho3"], "--eps", str(eps)], ok()(distill_one_shot)),
        case("distill-zero", ["distill", f["rho3_def"], "--regime", "zero"], ok()(distill_zero)),
        case("distill-asymptotic", ["distill", f["rho3"], "--regime", "asymptotic"], ok()(distill_asym)),
        case("decide-pure", ["decide", f["psi3"], f["phi3"]], decision(pure_possible)),
        case("decide-heralded", ["decide", f["psi3"], "--heralded", f["ens"]], decision(heralded_possible)),
        case("decide-qubit", ["decide", "--qubit", f["q_rho"], f["q_sigma"]], decision(bool(qubit_possible))),
        case("construct-distill", ["channel", "--construct", "distill", "--state", f["rho3"], "--m", "2",
                                   "--out", f["ch_distill"]], constructed("ch_distill", distill_channel)),
        case("construct-dilute", ["channel", "--construct", "dilute", "--state", f["omega"], "--m", str(m_dil),
                                  "--out", f["ch_dilute"]], constructed("ch_dilute", dilute_channel)),
        case("construct-prop5", ["channel", "--construct", "prop5", "--state", f["psi3"], "--target", f["target"],
                                 "--out", f["ch_prop5"]], constructed("ch_prop5", prop5_channel)),
        case("verify-distill", ["channel", "--verify", f["ch_distill"], "--rho", f["rho3"]],
             verify("ch_distill", rho3)),
        case("verify-dilute", ["channel", "--verify", f["ch_dilute"]], verify("ch_dilute", None)),
        case("verify-prop5", ["channel", "--verify", f["ch_prop5"], "--rho", f["psi3"]], verify("ch_prop5", rho_p)),
    ]
    warm = list(round_)
    round_ += [case(f"bad-{name}", ["monotones", f[name]], rejected)
               for name in ("syntax", "missing_key", "non_hermitian", "trace_two", "not_psd",
                            "dim_mismatch", "unknown_kind")]
    round_ += [
        case("bad-missing-file", ["monotones", path("does_not_exist.json")], rejected),
        case("bad-nan", ["distill", f["nan"], "--eps", "0.1"], rejected),
        case("bad-eps", ["distill", f["rho3"], "--eps", "1.5"], rejected),
        case("bad-pure-expected", ["decide", f["rho3"], f["psi3"]], rejected),
        case("bad-qubit-dim", ["decide", "--qubit", f["rho3"], f["rho3"]], rejected),
        case("bad-three-states", ["decide", f["psi3"], f["phi3"], f["psi3"]], rejected),
        case("bad-dilute-m", ["channel", "--construct", "dilute", "--state", f["omega"], "--m", "1"], rejected),
        case("bad-not-tp", ["channel", "--verify", f["not_tp"]], rejected),
        case("bad-no-state", ["channel", "--construct", "distill"], rejected),
        case("bad-zero-iters", ["oracle", f["rho3"], f["rho3"], "--max-iters", "0"], zero_iterations),
    ]
    return round_, warm


WORKLOADS = {
    "dilution_brackets": dilution_brackets,
    "np_duals": np_duals,
    "oracle_pairs": oracle_pairs,
    "cli_batch": cli_batch,
}
