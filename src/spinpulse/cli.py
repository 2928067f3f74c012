"""Command-line front end.

Subcommands: ``parse``, ``fidelity``, ``scan``, ``verify-eq5``, ``rabi``,
``echo``, ``estimate-error``, ``eseem-ratio``.  Every command supports
``--json`` (JSON artifact instead of the default CSV/text), ``--out``
(write to a file instead of stdout) and ``--quiet`` (suppress status
lines, which go to stderr).  Angles on the command line use the same
unit-suffixed literals as the DSL: ``1pi``, ``90deg``, ``1.2rad``.
Each option is declared once: its ``dest`` is its key in the JSON
artifact's ``meta.config``, with the unit in the name (``--theta`` is
``theta_rad``, ``--tau`` is ``tau_s``), and ranges are the library's to
check.

An optional ``--config FILE`` reads ``key=value`` lines (same names as
the long flags, ``#`` comments allowed; ``help``, ``config`` and a key
given twice are errors); explicit flags override file values.  A switch
such as ``bb1`` takes ``true/false``, ``1/0``, ``yes/no`` or ``on/off``
in any case; any other value is an error.  The file's values go into the
parsed options, never into the parser, which is built once per process.
Identical configurations produce byte-identical outputs.

Exit codes: 0 success, 2 usage or domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional

from . import __version__
from .analysis import (
    DEGENERATE_INFIDELITY,
    EseemRatioSpec,
    bb1_fidelity,
    eseem_ratio,
    estimate_rotation_error,
    magic_refocus_angle,
    scan_order,
    verify_eq5_coefficients,
)
from .dsl import ParseError, format_program, parse_angle_literal, parse_program, program_to_ast
from .errors import DELTA_ZERO, EnsembleSpec, Gaussian, Uniform
from .simulator import DEFAULT_TAU, Signal, echo_train, rabi_trace
from .su2 import RotationSpec, fidelity, rotation

__all__ = ["main", "build_parser"]


def _angle(text: str) -> float:
    try:
        return parse_angle_literal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        _status(args, f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _status(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _csv_text(rows: list[dict]) -> str:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(row[k]) for k in header) for row in rows)
    return "\n".join(lines) + "\n"


# Parsed arguments that steer the run rather than describe it.
_NOT_CONFIG = ("command", "func", "json", "out", "quiet", "config")


def _config(args) -> dict:
    """The command's options, in declaration order, under their dest names."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}


def _emit_rows(args, rows: list[dict], text: Optional[str] = None, **extra) -> None:
    """The JSON artifact with --json, its config the command's options plus
    ``extra``; else ``text`` (default: the rows as CSV)."""
    if args.json:
        meta = {"tool": "spinpulse", "version": __version__, "command": args.command,
                "config": {**_config(args), **extra}}
        _emit(args, json.dumps({"meta": meta, "data": rows}, indent=2) + "\n")
    else:
        _emit(args, _csv_text(rows) if text is None else text)


def _read_text(path: str) -> str:
    """An input file's text as UTF-8, a leading byte-order mark dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# Default of an option that must arrive on the command line or via --config.
_REQUIRED = object()


def _require(subparser: argparse.ArgumentParser, args) -> None:
    missing = [
        a.option_strings[0] for a in subparser._actions
        if getattr(args, a.dest, None) is _REQUIRED
    ]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> int:
    program = parse_program(_read_text(args.file), name=args.file)
    if args.json:
        _emit(args, json.dumps(program_to_ast(program), indent=2) + "\n")
    else:
        _emit(args, format_program(program))
    return 0


def cmd_fidelity(args) -> int:
    offsets = (args.dphi1_rad, args.dphi2_rad)
    if args.bb1:
        f = bb1_fidelity(args.theta_rad, args.epsilon, offsets)
    else:
        if offsets != (0.0, 0.0):
            raise ValueError("--dphi1/--dphi2 apply to the composite sequence; add --bb1")
        ideal = rotation(RotationSpec(args.theta_rad, 0.0))
        f = fidelity(ideal, rotation(RotationSpec(args.theta_rad, 0.0, args.epsilon)))
    rows = [{"fidelity": f, "infidelity": 1.0 - f}]
    _emit_rows(args, rows, f"F={f:.11e} 1-F={1.0 - f:.11e}\n")
    return 0


def cmd_scan(args) -> int:
    scan, slope = scan_order(args.theta_rad, (args.lo, args.hi), args.points, use_bb1=args.bb1)
    rows = [{"epsilon": e, "infidelity": i} for e, i in scan.points]
    _emit_rows(args, rows, slope=slope)
    if slope is None:
        floor = f"{DEGENERATE_INFIDELITY:g}"
        _status(args, f"degenerate scan: fewer than two infidelities above {floor}; no slope fitted")
    else:
        _status(args, f"fitted log-log slope = {slope:.4f}")
    return 0


def cmd_verify_eq5(args) -> int:
    report = verify_eq5_coefficients()
    rows = [
        {
            "term": term,
            "reference": ref,
            "fitted": fit,
            "rel_deviation": abs(fit - ref) / abs(ref),
        }
        for term, ref, fit in report.rows
    ]
    _emit_rows(
        args, rows, epsilon=report.epsilon, step_rad=report.step,
        max_rel_deviation=report.max_rel_deviation, rounding=report.rounding,
    )
    _status(
        args,
        f"max relative deviation = {report.max_rel_deviation:.3e}; "
        f"fitted coefficients carry up to {report.rounding:.1e} of rounding",
    )
    return 0


def _signal_rows(signal: Signal) -> list[dict]:
    xkey = f"{signal.axis_label}_{signal.axis_unit}"
    return [{xkey: x, signal.value_label: y} for x, y in signal.samples]


def cmd_rabi(args) -> int:
    ensemble = EnsembleSpec(
        epsilon_dist=Gaussian(args.mean, args.sigma),
        detuning_dist=DELTA_ZERO,
        nodes=args.nodes,
    )
    signal = rabi_trace(
        args.max_rad,
        args.step_rad,
        ensemble,
        use_bb1=args.bb1,
    )
    _emit_rows(args, _signal_rows(signal), provenance=signal.provenance)
    return 0


def cmd_echo(args) -> int:
    ensemble = None  # echo_train's exact line: n + 1 midpoints of pi/tau, folded for simple pulses
    if args.span_rad_per_s is not None:
        ensemble = EnsembleSpec(
            epsilon_dist=DELTA_ZERO,
            detuning_dist=Uniform(-args.span_rad_per_s, args.span_rad_per_s),
            nodes=args.nodes,
        )
    signal = echo_train(
        args.mode,
        args.n,
        args.epsilon,
        ensemble_detuning=ensemble,
        use_bb1=args.bb1,
        t2_envelope=args.t2_s,
        tau=args.tau_s,
    )
    _emit_rows(args, _signal_rows(signal), provenance=signal.provenance)
    return 0


def _read_signal_csv(path: str) -> Signal:
    lines = [ln.strip() for ln in _read_text(path).split("\n") if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: expected a CSV header plus data rows")
    header = lines[0].split(",")
    if len(header) != 2:
        raise ValueError(f"{path}: expected two CSV columns, got {len(header)}")
    samples = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 2:
            raise ValueError(f"{path}: malformed CSV row {ln!r}")
        try:
            samples.append((float(cells[0]), float(cells[1])))
        except ValueError as exc:
            raise ValueError(f"{path}: malformed CSV row {ln!r}: {exc}") from exc
    name_unit = header[0].rsplit("_", 1)
    axis = name_unit[0] if len(name_unit) == 2 else header[0]
    unit = name_unit[1] if len(name_unit) == 2 else ""
    return Signal(
        axis_label=axis,
        axis_unit=unit,
        value_label=header[1],
        samples=samples,
        provenance={"source": path},
    )


def cmd_estimate_error(args) -> int:
    cp = _read_signal_csv(args.cp)
    cpmg = _read_signal_csv(args.cpmg)
    eps_hat, residual = estimate_rotation_error(cp, cpmg, eps_max=args.eps_max)
    rows = [{"epsilon_hat": eps_hat, "residual": residual}]
    _emit_rows(args, rows, f"epsilon_hat={eps_hat:.11e} residual={residual:.11e}\n")
    return 0


def cmd_eseem_ratio(args) -> int:
    ratio = eseem_ratio(EseemRatioSpec(mode=args.mode, theta_eps=args.theta_eps_rad))
    rows = [{**_config(args), "ratio": ratio, "magic_angle_rad": magic_refocus_angle()}]
    _emit_rows(args, rows, f"ratio={ratio:.11e}\n")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("--json", action="store_true", help="emit a JSON artifact")
    sub.add_argument("--out", default=None, help="write the artifact to this path")
    sub.add_argument("--quiet", action="store_true", help="suppress status lines")
    sub.add_argument("--config", default=None, help="key=value config file; flags override")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="spinpulse",
        description="Composite-pulse spin-control simulation and verification.",
    )
    parser.add_argument("--version", action="version", version=f"spinpulse {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="parse a pulse-program file; print canonical text")
    p.add_argument("file", help="program file in the pulse DSL")
    _add_common(p)
    p.set_defaults(func=cmd_parse)

    p = subs.add_parser("fidelity", help="fidelity of a simple or corrected rotation")
    p.add_argument("--theta", dest="theta_rad", type=_angle, default=_REQUIRED,
                   help="target angle (e.g. 1pi)")
    p.add_argument("--epsilon", type=float, default=0.0, help="fractional amplitude error")
    p.add_argument("--bb1", action="store_true", help="use the corrected four-pulse sequence")
    p.add_argument("--dphi1", dest="dphi1_rad", type=_angle, default=0.0,
                   help="offset on the first phase channel")
    p.add_argument("--dphi2", dest="dphi2_rad", type=_angle, default=0.0,
                   help="offset on the second phase channel")
    _add_common(p)
    p.set_defaults(func=cmd_fidelity)

    p = subs.add_parser("scan", help="log-log infidelity-vs-error scan and slope")
    p.add_argument("--theta", dest="theta_rad", type=_angle, default=_REQUIRED)
    p.add_argument("--lo", type=float, default=1e-2)
    p.add_argument("--hi", type=float, default=1e-1)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--simple", dest="bb1", action="store_false",
                   help="scan an uncorrected single pulse")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = subs.add_parser("verify-eq5", help="extract phase-sensitivity coefficients numerically")
    _add_common(p)
    p.set_defaults(func=cmd_verify_eq5)

    p = subs.add_parser("rabi", help="nutation trace over a Gaussian amplitude-error ensemble")
    p.add_argument("--sigma", type=float, default=_REQUIRED, help="Gaussian width of epsilon")
    p.add_argument("--mean", type=float, default=0.0, help="Gaussian mean of epsilon")
    p.add_argument("--max", dest="max_rad", type=_angle, default=_REQUIRED,
                   help="largest nominal angle (e.g. 40pi)")
    p.add_argument("--step", dest="step_rad", type=_angle, default=_REQUIRED,
                   help="angle step (e.g. 0.25pi)")
    p.add_argument("--bb1", action="store_true", help="decompose into corrected pi blocks")
    p.add_argument("--nodes", type=int, default=EnsembleSpec.nodes, help="quadrature nodes")
    _add_common(p)
    p.set_defaults(func=cmd_rabi)

    p = subs.add_parser("echo", help="CP/CPMG echo-train amplitudes")
    p.add_argument("--mode", choices=["cp", "cpmg"], default=_REQUIRED)
    p.add_argument("--n", type=int, default=_REQUIRED, help="number of refocusing cycles")
    p.add_argument("--epsilon", type=float, default=0.0, help="refocusing amplitude error")
    p.add_argument("--bb1", action="store_true", help="corrected refocusing pulses")
    p.add_argument("--tau", dest="tau_s", type=float, default=DEFAULT_TAU, help="half echo spacing (s)")
    p.add_argument("--t2", dest="t2_s", type=float, default=None,
                   help="optional T2 envelope constant (s)")
    p.add_argument("--span", dest="span_rad_per_s", type=float, default=None,
                   help="detuning half-span (rad/s)")
    p.add_argument("--nodes", type=int, default=257, help="Gauss-Legendre order of --span")
    _add_common(p)
    p.set_defaults(func=cmd_echo)

    p = subs.add_parser("estimate-error", help="fit the rotation error from CP/CPMG CSV files")
    p.add_argument("--cp", default=_REQUIRED, help="CSV produced by 'echo --mode cp'")
    p.add_argument("--cpmg", default=_REQUIRED, help="CSV produced by 'echo --mode cpmg'")
    p.add_argument("--eps-max", type=float, default=0.3,
                   help="largest |epsilon| fitted, in (0, 1)")
    _add_common(p)
    p.set_defaults(func=cmd_estimate_error)

    p = subs.add_parser("eseem-ratio", help="modulation-component ratio for a refocusing pulse")
    p.add_argument("--mode", choices=["pi", "magic"], default=_REQUIRED)
    p.add_argument("--theta-eps", dest="theta_eps_rad", type=_angle, default=_REQUIRED,
                   help="absolute angle error (e.g. 0.1rad)")
    _add_common(p)
    p.set_defaults(func=cmd_eseem_ratio)

    return parser, subs.choices


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The command tree, built on the first ``main`` call and shared after it."""
    return build_parser()


def _config_key(key: str) -> str:
    return key.replace("_", "-")


def _load_config(path: str) -> dict:
    values = {}
    seen = set()
    # a "#" starts a comment only at the start of a line or after
    # whitespace, so a value may hold one
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if _config_key(key) in seen:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
        seen.add(_config_key(key))
        values[key] = value
    return values


_TRUE = ("true", "1", "yes", "on")
_FALSE = ("false", "0", "no", "off")


def _apply_config(subparser: argparse.ArgumentParser, values: dict) -> dict:
    """The config file's values, typed by ``subparser``'s options, by dest."""
    typed = {}
    for key, text in values.items():
        action = subparser._option_string_actions.get("--" + _config_key(key))
        if action is None or action.dest in ("help", "config"):
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(action, argparse._StoreConstAction):  # a switch
            flag = text.lower()
            if flag not in _TRUE + _FALSE:
                raise ValueError(
                    f"config key {key!r}: expected one of {', '.join(_TRUE + _FALSE)}, got {text!r}"
                )
            value = action.const if flag in _TRUE else action.default
        elif action.type is not None:
            try:
                value = action.type(text)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
        else:
            value = text
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise ValueError(f"config key {key!r}: invalid choice {value!r} (choose from {choices})")
        typed[action.dest] = value
    return typed


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, registry = _parser()
    args = parser.parse_args(argv)
    subparser = registry[args.command]
    try:
        if args.config:
            # Re-parse the command's own tokens over the file's values, so
            # flags still win; updating ``args`` keeps its declaration order.
            preset = {**vars(args), **_apply_config(subparser, _load_config(args.config))}
            args = subparser.parse_args(argv[1:], argparse.Namespace(**preset))
        _require(subparser, args)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
