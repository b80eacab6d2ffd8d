"""End-to-end acceptance checks.

Each test prints a single pass/fail verdict line (visible with -s or in
the captured output of a failing run) and covers one numbered criterion.
"""

import math
import time

import numpy as np

from dcoh.channels import apply, construct_dilute, construct_distill, construct_prop5, is_dio, is_rho_dio, qubit_decide, validate_channel
from dcoh.hypotest import dh_epsilon, distill_fidelity_program
from dcoh.majorization import build_witness, dio_pure_decide, dio_to_maxcoherent_decide
from dcoh.monotones import c_k_monotone, r_delta, renyi_relative
from dcoh.oracle import rho_dio_feasible
from dcoh.rates import (
    asymptotic_rate,
    dilute_asymptotic,
    dilute_one_shot_bounds,
    dilute_zero_error,
    distill_asymptotic,
    distill_zero_error,
)
from dcoh.states import dephase, fidelity, max_coherent, pure_to_density

from helpers import QUTRIT, rand_rho, rand_pure


def _verdict(n, label, ok, detail=""):
    print(f"criterion {n:02d} [{label}]: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {n}: {label} {detail}"


def test_criterion_01_separation_example():
    t0 = time.perf_counter()
    rho = pure_to_density(QUTRIT)
    psi2 = pure_to_density(max_coherent(2))
    checks = []

    p = np.abs(QUTRIT) ** 2
    checks.append(abs(float(np.sum(p**2)) - 59.0 / 128.0) <= 1e-12)
    checks.append(distill_zero_error(rho).one_shot_bits == 1.0)
    checks.append(dio_to_maxcoherent_decide(QUTRIT, 2) is False)

    verdict = rho_dio_feasible(rho, psi2)
    witness_ok = (
        verdict.status == "feasible"
        and verdict.witness is not None
        and is_rho_dio(verdict.witness, rho)[0]
        and np.linalg.norm(apply(verdict.witness, rho) - psi2) <= 1e-6
    )
    checks.append(witness_ok)

    ch = construct_prop5(rho, psi2)
    validate_channel(ch)
    checks.append(np.linalg.norm(apply(ch, rho) - psi2) <= 1e-7)
    checks.append(is_rho_dio(ch, rho)[0])

    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 1.0)
    _verdict(1, "separation example", all(checks), f"({elapsed:.3f}s)")


def test_criterion_02_monotone_gap_values():
    c2_in = c_k_monotone(QUTRIT, 2)
    c2_out = c_k_monotone(max_coherent(2), 2)
    ok = abs(c2_in - 0.375) <= 1e-12 and abs(c2_out - 0.5) <= 1e-12 and c2_out > c2_in
    _verdict(2, "monotone values", ok, f"(C2 in={c2_in}, out={c2_out})")


def test_criterion_03_closed_form_vs_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst_diff = worst_gap = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 6))
        rho = rand_rho(rng, d)
        res = dh_epsilon(rho, dephase(rho), 0.0)
        worst_diff = max(worst_diff, abs(res.dh_bits - renyi_relative(rho, 0.0)))
        worst_gap = max(worst_gap, abs(res.gap))
    elapsed = time.perf_counter() - t0
    ok = worst_diff <= 1e-6 and worst_gap <= 1e-6 and elapsed < 30.0
    _verdict(3, "closed form vs solver", ok,
             f"(diff={worst_diff:.2e}, gap={worst_gap:.2e}, {elapsed:.1f}s)")


def test_criterion_04_additivity_multiplicativity():
    rng = np.random.default_rng(1004)
    ok = True
    for _ in range(50):
        a = rand_rho(rng, int(rng.integers(2, 4)))
        b = rand_rho(rng, int(rng.integers(2, 4)))
        add_lhs = renyi_relative(np.kron(a, b), 0.0)
        add_rhs = renyi_relative(a, 0.0) + renyi_relative(b, 0.0)
        mul_lhs = r_delta(np.kron(a, b)) + 1.0
        mul_rhs = (r_delta(a) + 1.0) * (r_delta(b) + 1.0)
        ok &= abs(add_lhs - add_rhs) <= 1e-7 * max(1.0, abs(add_rhs))
        ok &= abs(mul_lhs - mul_rhs) <= 1e-7 * mul_rhs
    _verdict(4, "additivity/multiplicativity", ok)


def test_criterion_05_pure_state_decider_equivalence():
    rng = np.random.default_rng(1005)
    ok = True
    witnesses = 0
    for _ in range(500):
        d1, d2 = rng.integers(2, 7, size=2)
        psi, phi = rand_pure(rng, d1), rand_pure(rng, d2)
        p, q = np.abs(psi) ** 2, np.abs(phi) ** 2
        d = max(len(p), len(q))
        ps = np.sort(np.pad(p, (0, d - len(p))))[::-1]
        qs = np.sort(np.pad(q, (0, d - len(q))))[::-1]
        brute = all(
            ps[: k + 1].sum() <= qs[: k + 1].sum() + 1e-9 for k in range(d)
        )
        got = dio_pure_decide(psi, phi)
        ok &= got == brute
        if got:
            w = build_witness(q, p)
            ok &= bool(np.all(w >= -1e-9))
            ok &= bool(np.allclose(w.sum(axis=0), 1.0, atol=1e-9))
            ok &= bool(np.allclose(w.sum(axis=1), 1.0, atol=1e-9))
            ok &= bool(
                np.allclose(w @ np.pad(q, (0, d - len(q))), np.pad(p, (0, d - len(p))), atol=1e-9)
            )
            witnesses += 1
    _verdict(5, "pure-state decider equivalence", ok and witnesses > 0,
             f"({witnesses} witnesses verified)")


def test_criterion_06_no_catalysis():
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(200):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        psi, phi = rand_pure(rng, d1), rand_pure(rng, d2)
        plain = dio_to_maxcoherent_decide(psi, m)
        catalyzed = dio_pure_decide(
            np.kron(psi, phi), np.kron(max_coherent(m), phi)
        )
        ok &= plain == catalyzed
    _verdict(6, "catalysis does not help", ok)


def test_criterion_07_qubit_equivalence():
    rng = np.random.default_rng(1007)
    determined = 0
    agreement = True
    n = 300
    for _ in range(n):
        rho = rand_rho(rng, 2)
        sigma = rand_rho(rng, 2)
        verdict = rho_dio_feasible(rho, sigma, max_iters=5000)
        if verdict.status == "undetermined":
            continue
        determined += 1
        agreement &= (verdict.status == "feasible") == qubit_decide(rho, sigma)
    rate = determined / n
    ok = agreement and rate >= 0.95
    _verdict(7, "qubit decider vs oracle", ok, f"(determinacy {rate:.1%})")


def test_criterion_08_channel_constructions():
    rng = np.random.default_rng(1008)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        rho = rand_rho(rng, d)
        prog = distill_fidelity_program(rho, m)
        ch = construct_distill(rho, m, prog.primal)
        validate_channel(ch)
        psi_m = pure_to_density(max_coherent(m))
        ok &= abs(fidelity(apply(ch, rho), psi_m) - prog.value) <= 1e-7
        ok &= is_rho_dio(ch, rho)[0]

        omega = rand_rho(rng, d)
        munit = int(math.ceil(r_delta(omega) + 1.0 - 1e-9))
        dil = construct_dilute(munit, omega)
        validate_channel(dil)
        unit = pure_to_density(max_coherent(munit))
        ok &= float(np.max(np.abs(apply(dil, unit) - omega))) <= 1e-8
        ok &= is_rho_dio(dil, unit)[0]
        # zero-error dilution needs no more than DIO: the channel is covariant on every input
        ok &= is_dio(dil)[0]
    _verdict(8, "channel constructions", ok)


def test_criterion_09_dilution_bracket():
    rng = np.random.default_rng(1009)
    ok = True
    oracle_checked = 0
    for i in range(100):
        d = int(rng.integers(2, 5))
        rho = rand_rho(rng, d)
        exact_unit = r_delta(rho) + 1.0
        for eps in (0.0, 0.05, 0.1):
            lo, hi = dilute_one_shot_bounds(rho, eps)
            ok &= lo.raw_value <= hi.raw_value + 1e-9
            ok &= lo.one_shot_bits <= hi.one_shot_bits + 1e-12
            if eps == 0.0:
                want = math.log2(math.ceil(exact_unit - 1e-9))
                ok &= lo.one_shot_bits == hi.one_shot_bits == want
            elif d == 3 and oracle_checked < 60:
                # grid-search oracle: best feasible candidate unit count,
                # always >= the true optimum; the upper-bound witness is
                # reconstructed and re-verified as one of the candidates
                best = exact_unit
                delta = dephase(rho)
                unit_hi = 2.0 ** hi.raw_value
                ts = list(np.linspace(0.0, 1.0, 41))
                if exact_unit > 1.0 + 1e-12:
                    ts.append((exact_unit - unit_hi) / (exact_unit - 1.0))
                for t in ts:
                    omega = (1.0 - t) * rho + t * delta
                    if fidelity(rho, omega) >= 1.0 - eps - 1e-9:
                        best = min(best, r_delta(omega) + 1.0)
                for _ in range(40):
                    tau = rand_rho(rng, 3)
                    s = float(rng.uniform(0.0, 0.5))
                    omega = (1.0 - s) * rho + s * tau
                    if fidelity(rho, omega) >= 1.0 - eps:
                        best = min(best, r_delta(omega) + 1.0)
                unit_lo = 2.0 ** lo.raw_value
                ok &= unit_lo - 1e-6 <= best <= unit_hi + 1e-6
                oracle_checked += 1
    _verdict(9, "dilution bracket", ok and oracle_checked > 0,
             f"({oracle_checked} oracle comparisons)")


def test_criterion_10_asymptotic_self_consistency():
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(50):
        rho = rand_rho(rng, int(rng.integers(2, 5)))
        sigma = rand_rho(rng, int(rng.integers(2, 5)))
        prod = asymptotic_rate(rho, sigma) * asymptotic_rate(sigma, rho)
        ok &= abs(prod - 1.0) <= 1e-9
        ok &= distill_asymptotic(rho).raw_value == dilute_asymptotic(rho).raw_value
    _verdict(10, "asymptotic self-consistency", ok)
