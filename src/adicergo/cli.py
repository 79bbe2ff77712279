"""Batch command-line front end: one subcommand per headline quantity,
CSV/JSON artifacts, reproducible across runs."""
from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import functools
import io
import json
import os
import sys

import numpy as np

from .adic import AdicInt, embed
from .basis import Basis, _check_budget, parse_basis
from .characters import parse_character, reduce_phase
from .ergodic import (CylinderFunction, compare, cylinder_from_dict,
                      cylinder_to_dict, empirical_average, predicted_limit,
                      torus_averages)
from .multipliers import BudgetError, complete_exp_sum, phase_limit, wiener_energy
from .weyl import _SAMPLES, _SOURCE_OF, adic_weyl_sums


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _n_schedule(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be int values separated by ',', not {text!r}")


def _values(text: str, flag: str, kind: type = int, sep: str = ",") -> list:
    """The parts of a flag's text between seps, each read as kind; a malformed
    or non-finite part is refused with the flag and the text."""
    try:
        values = [kind(v) for v in text.split(sep)]
    except ValueError:
        raise ValueError(f"{flag} must be {kind.__name__} values separated by {sep!r},"
                         f" not {text!r}") from None
    if kind is not int and not all(map(cmath.isfinite, values)):
        raise ValueError(f"{flag} must be finite, not {text!r}")
    return values


# field -> (its flag, its default, the flag's argparse options), in the order
# of a report's config echo.  A config-file value must have the flag's type:
# an int (not a bool) for type=int, a list of ints for --N, a string otherwise;
# null only where the default is None; and one of the flag's choices.
_FIELDS = {
    "basis": ("--basis", None, {"help": "const:<c> | cycle:<c0>,... | list:<c0>,... [@offset:<k>]"}),
    "rho": ("--rho", None, {"help": "comma-separated integer coefficients, constant first"}),
    "char": ("--char", None, {"help": "<ell>/<A> or <ell>@level:<r>"}),
    "n_schedule": ("--N", None, {"type": _n_schedule, "help": "comma-separated N schedule"}),
    "source": ("--source", "primes", {"choices": tuple(_SAMPLES)}),
    "kind": ("--kind", "prime", {"choices": tuple(_SOURCE_OF)}),
    "q": ("--q", None, {"type": int}),
    "psi": ("--psi", "0,1", {"help": "coefficients a1,a2,... of a1*x + a2*x^2 + ..."}),
    "beta": ("--beta", None, {"help": "orbit coefficients, ';' between torus components"}),
    "freqs": ("--freqs", "1", {"help": "frequencies, ';' separated, ',' within a tuple"}),
    "coeffs": ("--coeffs", "1", {"help": "complex coefficients, ';' separated"}),
    "x": ("--x", "0", {"help": "starting point"}),
    "r_max": ("--r-max", None, {"type": int}),
    "function": ("--function", None, {"help": "cylinder function JSON file"}),
    "out": ("--out", None, {"help": "write <out>.csv and <out>.json"}),
}


def _check_value(key: str, value):
    """Refuse a config-file value that its flag could not have given."""
    _, default, options = _FIELDS[key]
    kind = options.get("type", str)
    if value is None:
        fits = default is None
    elif kind is _n_schedule:
        fits = type(value) is list and all(type(v) is int for v in value)
    else:
        fits = type(value) is kind
    if not fits:
        name = "list[int]" if kind is _n_schedule else kind.__name__
        raise ValueError(f"config key {key!r} must be {name}{' | None' * (default is None)},"
                         f" not {value!r}")
    if "choices" in options and value not in options["choices"]:
        raise ValueError(f"config key {key!r} must be one of"
                         f" {', '.join(options['choices'])}, not {value!r}")


def _parsed_rho(cfg: argparse.Namespace, basis: Basis, r: int) -> list[AdicInt]:
    return [embed(c, basis, r) for c in _values(cfg.rho, "--rho")]


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None


def parse_config(args: argparse.Namespace) -> argparse.Namespace:
    """Merge a config file (if given) with command-line flags; flags win.
    The result holds every field of `_FIELDS`, in its order.  A config key
    that is unknown, or not read by the command, is refused so typos fail
    loudly, and the fields the command does not read are None, so the config
    echo of a report can be fed back.  Then every field the command requires
    must be set, in table order."""
    _, required, optional = _COMMANDS[args.command]
    fields = (*required, *optional)
    doc = {}
    if args.config:
        doc = _read_json(args.config)
        if isinstance(doc, dict):
            doc = doc.get("config", doc)
        if not isinstance(doc, dict):
            raise ValueError(f"config file {args.config} is not a JSON object")
        for key, value in doc.items():
            if key not in _FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            if key not in fields:
                raise ValueError(f"config key {key!r} is not read by {args.command}")
            _check_value(key, value)
    cfg = argparse.Namespace()
    for key, (_, default, _) in _FIELDS.items():
        value = getattr(args, key, None)
        if value is None:
            value = doc.get(key, default)
        setattr(cfg, key, value if key in fields else None)
    for key in required:
        if getattr(cfg, key) is None:
            raise ValueError(f"{_REQUIRED_TEXT.get(key, _FIELDS[key][0])} is required")
    if cfg.n_schedule == []:
        raise ValueError("the N schedule is empty")
    return cfg


def emit_report(cfg: argparse.Namespace, columns: dict, summary: dict):
    """Write <out>.csv (one column per key of `columns`, a name mapped to a
    sequence, as csv.writer writes its rows, floats at 17 significant digits)
    and <out>.json (config echo plus summary, as compact json.dumps writes it,
    complex numbers and vectors as [re, im] pairs).  Both texts are built
    before a file is opened, and a failed write removes every file this call
    opened, so a report is written whole or not at all."""
    if cfg.out is None:
        return
    echo = {k: v for k, v in vars(cfg).items() if v is not None}
    text = json.dumps({"config": echo, **summary}, default=_json_default) + "\n"
    cells = [[_fmt(v) if isinstance(v, float) else v
              for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
             for c in columns.values()]
    table = io.StringIO()
    csv.writer(table).writerows([columns, *zip(*cells)])
    opened = []
    try:
        for suffix, body, newline in ((".csv", table.getvalue(), ""), (".json", text, None)):
            with open(cfg.out + suffix, "w", newline=newline) as fh:
                opened.append(fh.name)
                fh.write(body)
    except BaseException:
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _json_default(v):
    """A complex number as [re, im], a complex vector as its list of pairs."""
    if isinstance(v, np.ndarray) and v.dtype == np.complex128 and v.ndim == 1:
        return np.column_stack((v.real, v.imag)).tolist()
    if isinstance(v, complex):
        return [v.real, v.imag]
    raise TypeError(f"not serializable: {type(v)}")


def _complex_line(label: str, z: complex) -> str:
    return (f"{label}: {_fmt(z.real)} {'+' if z.imag >= 0 else '-'} {_fmt(abs(z.imag))}i"
            f"  (abs {_fmt(abs(z))})")


def cmd_gauss(cfg: argparse.Namespace) -> tuple:
    value = complete_exp_sum(_values(cfg.psi, "--psi"), cfg.q)
    return ([_complex_line("complete exponential sum", value)],
            {"q": [cfg.q], "re": [value.real], "im": [value.imag], "abs": [abs(value)]},
            {"value": value, "magnitude": abs(value)})


def cmd_multiplier(cfg: argparse.Namespace) -> tuple:
    basis = parse_basis(cfg.basis)
    chi = parse_character(cfg.char, basis)
    _check_budget(chi.modulus.bit_length(), "bits", "character modulus")  # written in decimal
    phase = reduce_phase(chi, _parsed_rho(cfg, basis, chi.r))
    value = phase_limit(phase.phi, cfg.kind)
    return ([_complex_line(f"{cfg.kind} multiplier (modulus {phase.modulus})", value)],
            {"char": [chi.spec_string()], "modulus": [phase.modulus],
             "re": [value.real], "im": [value.imag]},
            {"multiplier": value, "modulus": phase.modulus, "kind": cfg.kind})


def cmd_weyl(cfg: argparse.Namespace) -> tuple:
    basis = parse_basis(cfg.basis)
    chi = parse_character(cfg.char, basis)
    rho = _parsed_rho(cfg, basis, chi.r)
    schedule = cfg.n_schedule or [10**4]
    sums = adic_weyl_sums(chi, rho, schedule, cfg.source)
    return ([_complex_line(f"weyl sum N={n}", value) for n, value in zip(schedule, sums)],
            _series_columns(schedule, sums), {"char": chi.spec_string(), "source": cfg.source})


def _series_columns(schedule: list[int], values: list[complex]) -> dict:
    return {"N": schedule, "re": [v.real for v in values], "im": [v.imag for v in values],
            "abs": [abs(v) for v in values]}


def _load_function(cfg: argparse.Namespace) -> CylinderFunction:
    try:
        return cylinder_from_dict(_read_json(cfg.function))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad function file {cfg.function}: {exc!r}") from None


def cmd_average(cfg: argparse.Namespace) -> tuple:
    f = _load_function(cfg)
    rho = _parsed_rho(cfg, f.basis, f.r)
    schedule = cfg.n_schedule or [10**4]
    if len(schedule) > 1:
        raise ValueError(f"average takes one N, not a schedule of {len(schedule)}")
    n = schedule[0]
    avg = empirical_average(f, rho, n, cfg.source)
    return ([f"averaged {f.modulus} residues at N={n} over {cfg.source}"],
            {"modulus": [f.modulus], "N": [n], "source": [cfg.source]},
            {"result": cylinder_to_dict(avg), "N": n, "source": cfg.source})


def cmd_limit(cfg: argparse.Namespace) -> tuple:
    f = _load_function(cfg)
    lim = predicted_limit(f, _parsed_rho(cfg, f.basis, f.r), cfg.kind)
    return ([f"predicted limit over {lim.modulus} residues ({cfg.kind} kind)"],
            {"modulus": [lim.modulus], "kind": [cfg.kind]},
            {"result": cylinder_to_dict(lim), "kind": cfg.kind})


def cmd_compare(cfg: argparse.Namespace) -> tuple:
    f = _load_function(cfg)
    rho = _parsed_rho(cfg, f.basis, f.r)
    schedule = cfg.n_schedule or [10**3, 10**4, 10**5]
    report = compare(f, rho, schedule, cfg.kind)
    return ([f"N={n}: sup {_fmt(s)}  l2 {_fmt(l)}"
             for n, s, l in zip(schedule, report["sup_norm"], report["l2_norm"])],
            {"N": schedule, "sup": report["sup_norm"], "l2": report["l2_norm"]}, report)


def cmd_torus(cfg: argparse.Namespace) -> tuple:
    beta = [_values(comp, "--beta", float) for comp in cfg.beta.split(";")]
    freqs = [tuple(_values(part, "--freqs")) for part in cfg.freqs.split(";")]
    coeffs = _values(cfg.coeffs, "--coeffs", complex, ";")
    if len(freqs) != len(coeffs):
        raise ValueError("--freqs and --coeffs must have the same length")
    if not cmath.isfinite(sum(map(abs, coeffs))):  # it bounds every average
        raise ValueError(f"the sum of |--coeffs| must be finite, not {cfg.coeffs!r}")
    trig = {}  # a repeated frequency adds its coefficients
    for f, c in zip(freqs, coeffs):
        trig[f] = trig[f] + c if f in trig else c
    x = tuple(_values(cfg.x, "--x", float))
    schedule = cfg.n_schedule or [10**4]
    averages = torus_averages(trig, beta, x, schedule, cfg.source)
    return ([_complex_line(f"torus average N={n}", value) for n, value in zip(schedule, averages)],
            _series_columns(schedule, averages), {"source": cfg.source})


def cmd_wiener(cfg: argparse.Namespace) -> tuple:
    basis = parse_basis(cfg.basis)
    rho = _parsed_rho(cfg, basis, cfg.r_max)
    series = wiener_energy(basis, rho, cfg.r_max, cfg.kind)
    levels = [r for r, _ in series]
    return ([f"r={r}  A_r={basis.modulus(r)}  W_r={_fmt(w)}" for r, w in series],
            {"r": levels, "A_r": [basis.modulus(r) for r in levels],
             "W_r": [w for _, w in series]},
            {"kind": cfg.kind, "series": [[r, w] for r, w in series]})


# command -> (its function, the fields it requires, the other fields it reads);
# a command takes the flags of exactly these fields, and --config.  The function
# returns its stdout lines, CSV columns and JSON summary, and prints nothing.
_COMMANDS = {
    "gauss": (cmd_gauss, ("q",), ("psi", "out")),
    "multiplier": (cmd_multiplier, ("basis", "char", "rho"), ("kind", "out")),
    "weyl": (cmd_weyl, ("basis", "char", "rho"), ("n_schedule", "source", "out")),
    "average": (cmd_average, ("function", "rho"), ("n_schedule", "source", "out")),
    "limit": (cmd_limit, ("function", "rho"), ("kind", "out")),
    "compare": (cmd_compare, ("function", "rho"), ("n_schedule", "kind", "out")),
    "torus": (cmd_torus, ("beta",), ("freqs", "coeffs", "x", "n_schedule", "source", "out")),
    "wiener": (cmd_wiener, ("basis", "r_max", "rho"), ("kind", "out")),
}

_REQUIRED_TEXT = {"function": "--function <file>"}  # the others read as their flag


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValueError, which main reports as bad input."""
    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process."""
    parser = _Parser(prog="adicergo", description="a-adic ergodic average experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, required, optional) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for field in (*required, *optional):
            flag, _, options = _FIELDS[field]
            p.add_argument(flag, dest=field, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: 0 once its report is written and its lines printed; 1
    for bad input or usage, 2 for a budget, with one error line and no stdout."""
    try:
        args = build_parser().parse_args(argv)
        cfg = parse_config(args)
        lines, columns, summary = _COMMANDS[args.command][0](cfg)
        emit_report(cfg, columns, summary)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # bad input and usage, bad JSON, unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
