"""Batch command-line front end with deterministic JSON reports.

Each subcommand returns (inputs, report fields, exit code); `main` alone
times the run, adds the envelope keys every report shares (`command`,
`inputs`, `tolerances`, `wall_time_s`) and writes the report to stdout as
strict JSON. Each input file is opened once, and its `inputs` entry holds
the sha256 of the bytes that were parsed, even when `--out` then
overwrites the file.

Exit codes: 0 success / affirmative decision, 1 negative decision,
2 undetermined (the oracle only), 3 input or validation error, usage
errors included (an unknown subcommand or flag, a missing argument, a
value argparse cannot convert); those print one `error: dcoh <sub>: ...`
line on stderr like every other input error.

The parser is built on the first `main` call and reused by later calls
in the same process.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import channels as ch
from . import majorization, monotones, oracle, rates
from .hypotest import dh_epsilon, distill_fidelity_program
from .states import (PREFIX_SLACK, Density, dephase, density, json_number, pure_to_density,
                     state_from_json)

EXIT_OK = 0
EXIT_NO = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT_ERROR = 3
ORACLE_EXIT = {"feasible": EXIT_OK, "infeasible-certified": EXIT_NO,
               "undetermined": EXIT_UNDETERMINED}

# The optional flags each mode of a subcommand reads, with the value an
# absent one takes. `main` rejects a given flag that the mode does not read.
# The flags that select the mode (--regime, --qubit, --heralded, --construct,
# --verify) are not listed.
MODE_FLAGS = {
    "distill": {"one-shot": {"eps": 0.0}, "zero": {}, "asymptotic": {}},
    "channel": {
        "construct-distill": {"state": None, "m": 2, "out": None},
        "construct-dilute": {"state": None, "m": 2, "out": None},
        "construct-prop5": {"state": None, "target": None, "out": None},
        "verify": {"rho": None},
    },
}


def _read(inputs: list, path: str) -> str:
    """The text of an input file; appends its path and the sha256 of the
    bytes read to `inputs`, the report's `inputs` list."""
    with open(path, "rb") as fh:
        data = fh.read()
    inputs.append({"path": path, "sha256": hashlib.sha256(data).hexdigest()})
    return data.decode("utf-8")


def _load_density(inputs: list, path: str) -> Density:
    """The state in a file as a Density, validated once for every call it reaches."""
    kind, state = state_from_json(_read(inputs, path))
    return density(pure_to_density(state)) if kind == "pure" else state


def _require_pure(where: str, kind: str, arr: np.ndarray) -> np.ndarray:
    if kind != "pure":
        raise ValueError(f"{where}: expected a pure state, got {kind!r}")
    return arr


def _load_pure(inputs: list, path: str) -> np.ndarray:
    return _require_pure(path, *state_from_json(_read(inputs, path)))


def _diagnostics(result) -> dict:
    """Solver path and work counters of an NPResult or FidelityProgram."""
    return {key: getattr(result, key) for key in ("eig_calls", "path")}


def _mode(args) -> str | None:
    if args.command == "distill":
        return args.regime
    if args.command == "decide":
        return "qubit" if args.qubit else "heralded" if args.heralded else "pure"
    if args.command == "channel":
        return f"construct-{args.construct}" if args.construct else "verify"
    return None


def _check_flags(args) -> None:
    """Reject optional flags the mode does not read; default the ones it does."""
    modes = MODE_FLAGS.get(args.command, {})
    reads = modes.get(args.mode, {})
    for flag in sorted({flag for flags in modes.values() for flag in flags}):
        given = getattr(args, flag)
        if flag in reads:
            if given is None:
                setattr(args, flag, reads[flag])
        elif given is not None:
            raise ValueError(f"{args.command} in {args.mode} mode does not read --{flag}")


def cmd_monotones(args):
    inputs = []
    report = monotones.monotone_report(_load_density(inputs, args.state))
    return inputs, {"results": vars(report)}, EXIT_OK


def cmd_distill(args):
    inputs = []
    rho = _load_density(inputs, args.state)
    fields = {"certificates": {}}
    if args.mode == "one-shot":
        np_result = dh_epsilon(rho, dephase(rho.rho), args.eps)
        report = rates.distill_one_shot_from(np_result, args.eps)
        # the dual point t* (null for the eps = 0 closed form, whose sup is at
        # t -> inf) and Tr(M rho) of the test: one eigvalsh re-checks the dual value
        # t*(1 - eps) - Tr(t* rho - dephase(rho))_+
        t_star = np_result.dual_t if math.isfinite(np_result.dual_t) else None
        fields["certificates"] = {"dual_value": np_result.dual_value, "duality_gap": np_result.gap,
                                  "dual_t": t_star,
                                  "test_trace": float(np.vdot(np_result.primal, rho.rho).real)}
        fields["diagnostics"] = _diagnostics(np_result)
    elif args.mode == "zero":
        report = rates.distill_zero_error(rho)
    else:
        report = rates.distill_asymptotic(rho)
    return inputs, {"results": vars(report), **fields}, EXIT_OK


def cmd_decide(args):
    want = 1 if args.mode == "heralded" else 2
    if len(args.states) != want:
        raise ValueError(f"decide in {args.mode} mode takes {want} state file(s), "
                         f"got {len(args.states)}")
    inputs = []
    if args.mode == "qubit":
        decision = ch.qubit_decide(*[_load_density(inputs, p) for p in args.states])
    elif args.mode == "heralded":
        psi = _load_pure(inputs, args.states[0])
        doc = json.loads(_read(inputs, args.heralded))
        try:
            items = [(json_number(item["prob"], "prob"), item["state"]) for item in doc["items"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed ensemble document: {exc}") from exc
        ensemble = [
            (prob, _require_pure(f"{args.heralded} item {i}", *state_from_json(state)))
            for i, (prob, state) in enumerate(items)
        ]
        decision = majorization.heralded_decide(psi, ensemble)
    else:
        decision = majorization.dio_pure_decide(*[_load_pure(inputs, p) for p in args.states])
    fields = {"mode": args.mode, "results": {"possible": bool(decision)}}
    return inputs, fields, EXIT_OK if decision else EXIT_NO


def cmd_channel(args):
    if args.mode == "verify":
        return _verify_channel(args)
    if args.state is None:
        raise ValueError(f"channel --construct {args.construct} needs --state")
    if args.construct == "prop5" and args.target is None:
        raise ValueError("channel --construct prop5 needs --target")
    inputs, extras, fields = [], {}, {}
    if args.construct == "distill":
        rho = _load_density(inputs, args.state)
        program = distill_fidelity_program(rho, args.m)
        channel = ch.construct_distill(rho, args.m, program.primal)
        extras = {"fidelity": program.value, "duality_gap": program.gap}
        fields["diagnostics"] = _diagnostics(program)
    elif args.construct == "dilute":
        channel = ch.construct_dilute(args.m, _load_density(inputs, args.state))
    else:  # prop5
        channel = ch.construct_prop5(*[_load_density(inputs, p) for p in (args.state, args.target)])
    ch.validate_channel(channel)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(ch.channel_to_json(channel) + "\n")
    dio_ok, dio_viol = ch.is_dio(channel)
    results = {"out": args.out, "input_dim": channel.input_dim, "output_dim": channel.output_dim,
               "dio": bool(dio_ok), "dio_violation": dio_viol, **extras}
    return inputs, {"mode": args.mode, "results": results, **fields}, EXIT_OK


def _verify_channel(args):
    inputs = []
    channel = ch.channel_from_json(_read(inputs, args.verify))
    dio_ok, dio_viol = ch.is_dio(channel)
    results = {"cptp": True, "dio": bool(dio_ok), "dio_violation": dio_viol}
    affirmative = dio_ok
    if args.rho:
        affirmative, rdio_viol = ch.is_rho_dio(channel, _load_density(inputs, args.rho))
        results.update(rho_dio=bool(affirmative), rho_dio_violation=rdio_viol)
    return inputs, {"mode": "verify", "results": results}, EXIT_OK if affirmative else EXIT_NO


def cmd_oracle(args):
    inputs = []
    rho, sigma = (_load_density(inputs, p) for p in (args.rho, args.sigma))
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
    # (iteration, residual) pairs, written as JSON arrays; each residual is finite
    diagnostics = {"residual_checkpoints": verdict.residual_checkpoints}
    if verdict.separation is not None:
        t, h_rho, h_sigma = verdict.separation
        diagnostics["testing_curve"] = {"t": t, "h_rho": h_rho, "h_sigma": h_sigma}
    return inputs, {"results": results, "diagnostics": diagnostics}, ORACLE_EXIT[verdict.status]


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so `main` reports them as input
    errors (exit 3, one line) instead of argparse printing usage and exiting 2.
    Subparsers are built with the same class; the message names the parser
    that rejected the input (`dcoh oracle: ...`)."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> _Parser:
    # built on the first `main` call, not at import; `main` looks the handler
    # up by command name, so the cached parser pins no function and a cmd_*
    # rebound on the module (a tracing wrapper, say) is the one that runs
    parser = _Parser(
        prog="dcoh",
        description="Coherence monotones, transformation deciders and channel "
        "synthesis for dephasing-covariant operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monotones", help="evaluate the monotone family on a state")
    p.add_argument("state")

    p = sub.add_parser("distill", help="distillation rates")
    p.add_argument("state")
    p.add_argument("--eps", type=float, help="smoothing (one-shot only, default 0)")
    p.add_argument("--regime", choices=["one-shot", "zero", "asymptotic"], default="one-shot")

    p = sub.add_parser("decide", help="pure-state / heralded / qubit transformation decisions")
    p.add_argument("states", nargs="+", help="state file(s)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--heralded", metavar="ENSEMBLE", help="heralded ensemble JSON file")
    group.add_argument("--qubit", action="store_true", help="decide a qubit density-matrix pair")

    p = sub.add_parser("channel", help="construct or verify channels")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--construct", choices=["distill", "dilute", "prop5"])
    group.add_argument("--verify", metavar="CHANNEL")
    p.add_argument("--state", help="input state file (construct modes)")
    p.add_argument("--target", help="target state file (prop5)")
    p.add_argument("--m", type=int, help="maximally coherent unit size (default 2)")
    p.add_argument("--out", help="where to write the constructed channel")
    p.add_argument("--rho", help="input state for the rho-DIO verification")

    p = sub.add_parser("oracle", help="feasibility oracle for rho -> sigma")
    p.add_argument("rho")
    p.add_argument("sigma")
    p.add_argument("--max-iters", type=int, default=oracle.DEFAULT_MAX_ITERS)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        started = time.perf_counter()
        args.mode = _mode(args)
        _check_flags(args)
        # an AttributeError (a subparser without its cmd_*) is not caught:
        # it is a fault of this module, not of the input
        handler = getattr(sys.modules[__name__], f"cmd_{args.command}")
        inputs, fields, code = handler(args)
        report = {
            "command": args.command,
            "inputs": inputs,
            # the slack every decider compares with: prefix sums, the monotone
            # certificate (monotones._certificate, read by qubit_decide and the
            # oracle), the curve test, unit counts and construct_prop5's bound
            "tolerances": {"decision": PREFIX_SLACK},
            **fields,
            "wall_time_s": round(time.perf_counter() - started, 6),
        }
        # serialize first: a NaN or infinity raises before stdout sees anything
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
