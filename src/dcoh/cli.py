"""Batch command-line front end with deterministic JSON reports.

Exit codes: 0 success / affirmative decision, 1 negative decision,
2 undetermined, 3 input or validation error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import channels as ch
from . import majorization, monotones, oracle, rates
from .hypotest import dh_epsilon, distill_fidelity_program
from .states import dephase, load_state, pure_to_density, state_from_json

EXIT_OK = 0
EXIT_NO = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT_ERROR = 3


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _input_entry(path: str) -> dict:
    return {"path": path, "sha256": _sha256(path)}


def _emit(report: dict, started: float) -> None:
    report["wall_time_s"] = round(time.perf_counter() - started, 6)
    # the slack every decider compares with: prefix sums, and the qubit
    # decider's R_Delta and l1 comparisons
    report["tolerances"] = {"decision": majorization.PREFIX_SLACK}
    # serialize first: a NaN or infinity raises before stdout sees anything
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_default, allow_nan=False)
    sys.stdout.write(text + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _load_density(path: str) -> np.ndarray:
    kind, arr = load_state(path)
    return pure_to_density(arr) if kind == "pure" else arr


def _require_pure(where: str, kind: str, arr: np.ndarray) -> np.ndarray:
    if kind != "pure":
        raise ValueError(f"{where}: expected a pure state, got {kind!r}")
    return arr


def _load_pure(path: str) -> np.ndarray:
    return _require_pure(path, *load_state(path))


def _finite(x: float):
    return "inf" if math.isinf(x) else x


def _diagnostics(result) -> dict:
    """Solver path and work counters of an NPResult or FidelityProgram."""
    return {
        "eig_calls": result.eig_calls,
        "path": result.path,
        "band_widenings": result.band_widenings,
    }


def cmd_monotones(args) -> int:
    started = time.perf_counter()
    kind, arr = load_state(args.state)
    psi = arr if kind == "pure" else None
    rho = pure_to_density(arr) if kind == "pure" else arr
    report = monotones.monotone_report(rho, psi=psi)
    _emit(
        {
            "command": "monotones",
            "inputs": [_input_entry(args.state)],
            "results": {
                "r_delta": report.r_delta,
                "rel_entropy_bits": report.rel_entropy_bits,
                "renyi": report.renyi,
                "l1": report.l1,
                "c_k": report.c_k,
                "lp_moduli": report.lp_moduli,
            },
        },
        started,
    )
    return EXIT_OK


def _rate_dict(r: rates.RateReport) -> dict:
    return {
        "one_shot_bits": _finite(r.one_shot_bits),
        "raw_value": _finite(r.raw_value),
        "eps": r.eps,
        "regime": r.regime,
    }


def cmd_distill(args) -> int:
    started = time.perf_counter()
    rho = _load_density(args.state)
    certificates, diagnostics = {}, {}
    if args.regime == "one-shot":
        np_result = dh_epsilon(rho, dephase(rho), args.eps)
        report = rates.distill_one_shot_from(np_result, args.eps)
        certificates = {
            "dual_value": np_result.dual_value,
            "duality_gap": np_result.gap,
        }
        diagnostics = {"diagnostics": _diagnostics(np_result)}
    elif args.regime == "zero":
        report = rates.distill_zero_error(rho)
    else:
        report = rates.distill_asymptotic(rho)
    _emit(
        {
            "command": "distill",
            "inputs": [_input_entry(args.state)],
            "results": _rate_dict(report),
            "certificates": certificates,
            **diagnostics,
        },
        started,
    )
    return EXIT_OK


def cmd_decide(args) -> int:
    started = time.perf_counter()
    if args.qubit and args.heralded:
        raise ValueError("decide takes --qubit or --heralded, not both")
    mode = "qubit" if args.qubit else "heralded" if args.heralded else "pure"
    want = 1 if mode == "heralded" else 2
    if len(args.states) != want:
        raise ValueError(
            f"decide in {mode} mode takes {want} state file(s), got {len(args.states)}"
        )
    if mode == "qubit":
        rho_path, sigma_path = args.states
        decision = ch.qubit_decide(
            _load_density(rho_path), _load_density(sigma_path), slack=majorization.PREFIX_SLACK
        )
        inputs = [_input_entry(rho_path), _input_entry(sigma_path)]
    elif mode == "heralded":
        psi_path, ens_path = args.states[0], args.heralded
        psi = _load_pure(psi_path)
        with open(ens_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            items = [(float(item["prob"]), item["state"]) for item in doc["items"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed ensemble document: {exc}") from exc
        ensemble = [
            (prob, _require_pure(f"{ens_path} item {i}", *state_from_json(state)))
            for i, (prob, state) in enumerate(items)
        ]
        decision = majorization.heralded_decide(psi, ensemble)
        inputs = [_input_entry(psi_path), _input_entry(ens_path)]
    else:
        psi_path, phi_path = args.states
        decision = majorization.dio_pure_decide(_load_pure(psi_path), _load_pure(phi_path))
        inputs = [_input_entry(psi_path), _input_entry(phi_path)]
    _emit(
        {
            "command": "decide",
            "mode": mode,
            "inputs": inputs,
            "results": {"possible": bool(decision)},
        },
        started,
    )
    return EXIT_OK if decision else EXIT_NO


def cmd_channel(args) -> int:
    started = time.perf_counter()
    if args.construct:
        if args.state is None:
            raise ValueError(f"channel --construct {args.construct} needs --state")
        if args.construct == "prop5" and args.target is None:
            raise ValueError("channel --construct prop5 needs --target")
        diagnostics = {}
        if args.construct == "distill":
            rho = _load_density(args.state)
            program = distill_fidelity_program(rho, args.m)
            channel = ch.construct_distill(rho, args.m, program.primal)
            extras = {"fidelity": program.value, "duality_gap": program.gap}
            diagnostics = {"diagnostics": _diagnostics(program)}
            inputs = [_input_entry(args.state)]
        elif args.construct == "dilute":
            omega = _load_density(args.state)
            channel = ch.construct_dilute(args.m, omega)
            extras = {}
            inputs = [_input_entry(args.state)]
        else:  # prop5
            rho = _load_density(args.state)
            omega = _load_density(args.target)
            channel = ch.construct_prop5(rho, omega)
            extras = {}
            inputs = [_input_entry(args.state), _input_entry(args.target)]
        ch.validate_channel(channel)
        payload = ch.channel_to_json(channel)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        dio_ok, dio_viol = ch.is_dio(channel)
        _emit(
            {
                "command": "channel",
                "mode": f"construct-{args.construct}",
                "inputs": inputs,
                "results": {
                    "out": args.out,
                    "input_dim": channel.input_dim,
                    "output_dim": channel.output_dim,
                    "dio": bool(dio_ok),
                    "dio_violation": dio_viol,
                    **extras,
                },
                **diagnostics,
            },
            started,
        )
        return EXIT_OK

    channel = ch.load_channel(args.verify)
    dio_ok, dio_viol = ch.is_dio(channel)
    results = {"cptp": True, "dio": bool(dio_ok), "dio_violation": dio_viol}
    inputs = [_input_entry(args.verify)]
    affirmative = dio_ok
    if args.rho:
        rho = _load_density(args.rho)
        rdio_ok, rdio_viol = ch.is_rho_dio(channel, rho)
        results["rho_dio"] = bool(rdio_ok)
        results["rho_dio_violation"] = rdio_viol
        inputs.append(_input_entry(args.rho))
        affirmative = rdio_ok
    _emit(
        {
            "command": "channel",
            "mode": "verify",
            "inputs": inputs,
            "results": results,
        },
        started,
    )
    return EXIT_OK if affirmative else EXIT_NO


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    rho = _load_density(args.rho)
    sigma = _load_density(args.sigma)
    verdict = oracle.rho_dio_feasible(rho, sigma, max_iters=args.max_iters)
    results = {
        "status": verdict.status,
        "iterations": verdict.iterations,
        "residual": verdict.residual if math.isfinite(verdict.residual) else None,
    }
    if verdict.certificate is not None:
        name, v_in, v_out = verdict.certificate
        results["certificate"] = {"monotone": name, "value_in": v_in, "value_out": v_out}
    if verdict.witness is not None:
        results["witness"] = json.loads(ch.channel_to_json(verdict.witness))
    _emit(
        {
            "command": "oracle",
            "inputs": [_input_entry(args.rho), _input_entry(args.sigma)],
            "results": results,
        },
        started,
    )
    if verdict.status == "feasible":
        return EXIT_OK
    if verdict.status == "infeasible-certified":
        return EXIT_NO
    return EXIT_UNDETERMINED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcoh",
        description="Coherence monotones, transformation deciders and channel "
        "synthesis for dephasing-covariant operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monotones", help="evaluate the monotone family on a state")
    p.add_argument("state")
    p.set_defaults(func=cmd_monotones)

    p = sub.add_parser("distill", help="distillation rates")
    p.add_argument("state")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--regime", choices=["one-shot", "zero", "asymptotic"], default="one-shot")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("decide", help="pure-state / heralded / qubit transformation decisions")
    p.add_argument("states", nargs="+", help="state file(s)")
    p.add_argument("--heralded", metavar="ENSEMBLE", help="heralded ensemble JSON file")
    p.add_argument("--qubit", action="store_true", help="decide a qubit density-matrix pair")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("channel", help="construct or verify channels")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--construct", choices=["distill", "dilute", "prop5"])
    group.add_argument("--verify", metavar="CHANNEL")
    p.add_argument("--state", help="input state file (construct modes)")
    p.add_argument("--target", help="target state file (prop5)")
    p.add_argument("--m", type=int, default=2, help="maximally coherent unit size")
    p.add_argument("--out", help="where to write the constructed channel")
    p.add_argument("--rho", help="input state for the rho-DIO verification")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("oracle", help="feasibility oracle for rho -> sigma")
    p.add_argument("rho")
    p.add_argument("sigma")
    p.add_argument("--max-iters", type=int, default=oracle.DEFAULT_MAX_ITERS)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
