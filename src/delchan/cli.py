"""Command-line front end.

Subcommands: construct, encode, decode, simulate, analyze, sweep.
Exit codes: 0 = success, 1 = verification failure, 2 = configuration error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from .harness import (
    DESK_SEED,
    ExperimentConfig,
    analyze_csv,
    desk_params,
    load_config,
    report_json,
    run_experiment,
    sweep_csv,
)
from .inner import construct_inner
from .outer import construct_outer
from .scheme import (
    PARAM_KEYS,
    Scheme,
    load_scheme,
    params_from_fields,
    params_to_fields,
    save_scheme,
)
from .strings import naming, nonnegative, read_fields


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _check_out(out: str | None) -> None:
    """Raises the OSError that writing out would, before a long run makes its
    text; a file the check creates is removed, so a refused run writes nothing."""
    if out is not None:
        existed = Path(out).exists()
        Path(out).open("a").close()
        if not existed:
            Path(out).unlink()


def _cmd_construct(args: argparse.Namespace) -> int:
    fields = {**params_to_fields(desk_params("bdc")), "seed": DESK_SEED}
    if args.config:
        fields.update(read_fields(args.config, {**PARAM_KEYS, "seed": nonnegative}))
    seed = args.seed if args.seed is not None else fields["seed"]
    with naming(args.config):  # the desk defaults are valid, so a fault lies in the config
        params = params_from_fields(fields)
        outer = construct_outer(params.outer, seed)  # its work cap first: it needs no inner code
        inner_cb = construct_inner(params.inner)
    if len(inner_cb) < params.outer.q:
        print(f"error: {args.config}: inner codebook has {len(inner_cb)} codewords,"
              f" need {params.outer.q}", file=sys.stderr)
        return 1
    scheme = Scheme(params, inner_cb.truncate(params.outer.q), outer)
    out_dir = Path(args.out or ".")  # made only once there is a scheme to write
    out_dir.mkdir(parents=True, exist_ok=True)
    inner_cb.save(out_dir / "codebook.txt")
    outer.save(out_dir / "outercode.txt")
    save_scheme(scheme, out_dir / "scheme.txt", "codebook.txt", "outercode.txt", seed)
    print(f"|C| = {len(inner_cb)}")
    print(f"log2|C|/m = {inner_cb.rate:.6f}")
    print(f"R_out = {params.outer.rate:.6f}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    scheme = load_scheme(args.config)
    _write_out(scheme.encode(args.message) + "\n", args.out)
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    received = args.bits if args.bits is not None else sys.stdin.read().strip()
    scheme = load_scheme(args.config)  # its decode refuses a non-binary string
    _write_out(f"{scheme.decode(received)}\n", args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.trials is not None:
        config = replace(config, trials=args.trials)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    _check_out(args.out)
    start = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - start
    _write_out(report_json(report), args.out)
    print(f"elapsed: {elapsed:.2f} s", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    csv, failures = analyze_csv()
    _write_out(csv, args.out)
    if failures:
        print(f"{failures} parameter set(s) failed verification", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _write_out(sweep_csv(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delchan",
        description="Concatenated coding schemes for bit-deletion and"
        " Poisson-repeat channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and serialize a scheme")
    p.add_argument("--config", help="key=value parameter file")
    p.add_argument("--out", help="output directory (default: current)")
    p.add_argument("--seed", type=nonnegative)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("encode", help="encode a message with a built scheme")
    p.add_argument("--config", required=True, help="scheme descriptor path")
    p.add_argument("--out")
    p.add_argument("message", type=int, help="message index")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("decode", help="decode a received bit string")
    p.add_argument("--config", required=True, help="scheme descriptor path")
    p.add_argument("--out")
    p.add_argument("bits", nargs="?", help="received bits (default: stdin)")
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=nonnegative)
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("analyze", help="verify all reference parameter sets")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("sweep", help="emit rate-vs-p curves as CSV")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        name = getattr(exc, "filename", None)  # an OSError's file, named as in every refusal
        print("error:", exc if name is None else f"{name}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
