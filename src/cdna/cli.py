"""``cdna``: command-line front end for every computation in the library.

All commands emit machine-readable tables (CSV by default, JSON with
``--format json``) whose rows carry the full parameter set needed to reproduce
them, including the seed for simulations.  Reals are printed with 12
significant digits.

Exit codes: 0 success, 2 usage error, 3 unsupported range (feasibility cap),
4 truncated trials under ``sim --strict``.
"""
from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Sequence

import click

from .binary import construct_binary4, optimize_binary4_grid
from .codes import (
    DEFAULT_MAX_ENUM,
    CompositeCode,
    _base_plus_uniform_success,
    _grid_code_success,
    construct_base_plus_uniform,
    construct_distinct_support,
    construct_grid_code,
    custom_decoder_from_table,
    evaluate_code,
)
from .coverage import (
    DEFAULT_TOL,
    CoverageParams,
    coverage_bounds,
    expected_coverage,
    expected_coverage_partial,
    random_access_expectation,
)
from .model import UnsupportedRangeError, _compositions
from .simulate import DEFAULT_MAX_TRANSMISSIONS, MODES, SimConfig, run_simulation

EXIT_UNSUPPORTED_RANGE = 3
EXIT_STRICT_TRUNCATION = 4


def _max_enum() -> int:
    raw = os.environ.get("CDNA_MAX_ENUM")
    if raw is None:
        return DEFAULT_MAX_ENUM
    try:
        value = int(raw)
    except ValueError:
        raise click.UsageError(f"CDNA_MAX_ENUM must be an integer, got {raw!r}")
    if value < 1:
        raise click.UsageError(f"CDNA_MAX_ENUM must be >= 1, got {value}")
    return value


def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, Fraction)):
        return f"{float(value):.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, (float, Fraction)):
        return float(_fmt_value(value))
    return value


def _emit(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps([{k: _json_value(v) for k, v in row.items()} for row in rows], indent=2))
        return
    header = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != header:
            raise AssertionError("inconsistent row schema")
    click.echo(",".join(header))
    for row in rows:
        click.echo(",".join(_fmt_value(v) for v in row.values()))


format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
    help="Output format.",
)


def _render_symbol(probs: Sequence) -> str:
    """A symbol's probabilities, or the first one alone for a binary symbol."""
    return ":".join(map(_fmt_value, probs[:1] if len(probs) == 2 else probs))


def _render_code(symbols: Iterable[Sequence]) -> str:
    return "|".join(map(_render_symbol, symbols))


#: Lengths one ``--range`` sweep may select: 10,000 take about 1 s at
#: omega = 2 and 6 s at omega = 32 (2 CPUs, Python 3.11).
_MAX_RANGE_LENGTHS = 10_000


def _parse_range(spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"--range must look like START:END:STEP, got {spec!r}")
    try:
        start, end = int(parts[0]), int(parts[1])
    except ValueError:
        raise click.UsageError(f"non-integer bound in --range {spec!r}")
    if start < 1:
        raise click.UsageError(f"--range must start at a length >= 1, got {spec!r}")
    # each branch takes at most one value past the cap, enough to refuse the sweep
    step = parts[2]
    if step.startswith("*"):
        try:
            factor = int(step[1:])
        except ValueError:
            raise click.UsageError(f"bad multiplicative step in --range {spec!r}")
        if factor < 2:
            raise click.UsageError("multiplicative step must be >= 2")
        values, v = [], start
        while v <= end and len(values) <= _MAX_RANGE_LENGTHS:
            values.append(v)
            v *= factor
    else:
        try:
            stride = int(step)
        except ValueError:
            raise click.UsageError(f"bad step in --range {spec!r}")
        if stride < 1:
            raise click.UsageError("step must be >= 1")
        values = range(start, end + 1, stride)[: _MAX_RANGE_LENGTHS + 1]
    if len(values) > _MAX_RANGE_LENGTHS:
        raise UnsupportedRangeError(f"--range {spec!r} selects more than {_MAX_RANGE_LENGTHS} lengths")
    if not values:
        raise click.UsageError(f"--range {spec!r} selects no values")
    return list(values)


def _parse_family_params(body: str, spec: str, offset: int) -> dict:
    params = {}
    pos = offset
    for chunk in body.split(","):
        if "=" not in chunk:
            raise click.UsageError(
                f"code spec error at position {spec.index(chunk, pos)}: expected key=value, got {chunk!r}"
            )
        key, value = chunk.split("=", 1)
        params[key.strip()] = value.strip()
        pos = spec.index(chunk, pos) + len(chunk)
    return params


def _parse_parts(raw: str) -> list[tuple[int, ...]]:
    parts = []
    for group in raw.split("|"):
        try:
            parts.append(tuple(int(tok) for tok in group.split("+")))
        except ValueError:
            raise click.UsageError(f"bad partition group {group!r}; use e.g. parts=1+2|3+4")
    return parts


#: Each code family: its constructor and the parameters it takes, in order.  A
#: ``parts`` value is a partition such as ``1+2|3+4``; the others are integers.
#: The keys, in this order, are the choices of ``design --family``.
_FAMILIES = {
    "distinct": (construct_distinct_support, ("q", "parts")),
    "qplus1": (construct_base_plus_uniform, ("q",)),
    "omega": (lambda n, q: construct_grid_code(n, q, max_enum=_max_enum()), ("n", "q")),
    "binary4": (construct_binary4, ("n",)),
}


def _family_arguments(family: str, given: dict) -> list:
    """``family``'s constructor arguments parsed from ``given``; KeyError names the first one missing."""
    return [_parse_parts(given[p]) if p == "parts" else int(given[p]) for p in _FAMILIES[family][1]]


def parse_code_spec(spec: str) -> CompositeCode:
    """Parse a code specification string.

    Grammar:
      * binary shorthand: comma-separated values, e.g. ``0.4,0.5,0.6``;
      * general alphabet: ``q=Q; p11 p12 ... | p21 p22 ...``;
      * families: ``qplus1:q=2``, ``omega:n=2,q=2``, ``binary4:n=3``,
        ``distinct:q=4,parts=1+2|3+4``.

    A malformed spec raises ``click.UsageError``; a family beyond the
    enumeration cap raises ``UnsupportedRangeError``.
    """
    s = spec.strip()
    if not s:
        raise click.UsageError("code spec error at position 0: empty spec")
    if s.startswith("q="):
        head, sep, body = s.partition(";")
        try:
            q = int(head[2:])
        except ValueError:
            raise click.UsageError(f"code spec error at position 2: bad alphabet size in {head!r}")
        if not sep:
            raise click.UsageError(f"code spec error at position {len(head)}: expected ';' after q=Q")
        rows = []
        pos = len(head) + 1
        for row in body.split("|"):
            tokens = row.split()
            try:
                probs = [float(tok) for tok in tokens]
            except ValueError:
                raise click.UsageError(f"code spec error at position {spec.index(row, pos)}: bad probability in {row!r}")
            if len(probs) != q:
                raise click.UsageError(
                    f"code spec error at position {spec.index(row, pos)}: row has {len(probs)} entries, expected q={q}"
                )
            rows.append(probs)
            pos = spec.index(row, pos) + len(row)
        try:
            return CompositeCode(rows)
        except ValueError as exc:
            raise click.UsageError(f"invalid code: {exc}")
    head, sep, body = s.partition(":")
    if sep and head in _FAMILIES:
        params = _parse_family_params(body, spec, len(head) + 1)
        try:
            return _FAMILIES[head][0](*_family_arguments(head, params))
        except KeyError as exc:
            raise click.UsageError(f"family {head!r} is missing parameter {exc.args[0]!r}")
        except UnsupportedRangeError:
            raise
        except ValueError as exc:
            raise click.UsageError(f"invalid family parameters: {exc}")
    # binary shorthand
    values = []
    pos = 0
    for token in s.split(","):
        try:
            values.append(float(token))
        except ValueError:
            raise click.UsageError(
                f"code spec error at position {spec.index(token, pos) if token else pos}: "
                f"bad value {token!r}"
            )
        pos = spec.index(token, pos) + len(token)
    try:
        return CompositeCode.binary(values)
    except ValueError as exc:
        raise click.UsageError(f"invalid code: {exc}")


@contextmanager
def _exit_codes():
    """Map the library's refusals to exit codes, around a command's whole body.

    ``UnsupportedRangeError`` (a feasibility cap) prints an ``error:`` line on
    stderr and exits 3; any other ``ValueError`` is a usage error (exit 2).
    Wrapping the whole body means no library call a command adds can let a
    refusal escape as a traceback.
    """
    try:
        yield
    except UnsupportedRangeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_UNSUPPORTED_RANGE)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
def main() -> None:
    """Coverage-depth and composite-code calculator."""


@main.command()
@click.option("--ell", type=int, help="Sequence length (exclusive with --range).")
@click.option("--range", "ell_range", metavar="START:END:STEP", help="Sweep of lengths; STEP like 2 or *2.")
@click.option("--omega", type=int, required=True, help="Support size per index.")
@click.option("--bounds", is_flag=True, help="Include analytic lower/upper bounds (omega >= 2).")
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True, help="Series truncation tolerance.")
@format_option
@_exit_codes()
def coverage(ell, ell_range, omega, bounds, tol, fmt) -> None:
    """Expected reads to recover a full sequence."""
    if (ell is None) == (ell_range is None):
        raise click.UsageError("provide exactly one of --ell or --range")
    ells = [ell] if ell is not None else _parse_range(ell_range)
    rows = []
    for l in ells:
        row = {
            "kind": "coverage",
            "provenance": "formula",
            "ell": l,
            "omega": omega,
            "tol": tol,
            "expected": expected_coverage(l, omega, tol),
        }
        if bounds:
            pair = coverage_bounds(l, omega)
            row.update(lower=pair.lower, upper=pair.upper)
        rows.append(row)
    _emit(rows, fmt)


@main.command()
@click.option("--ell", type=int, required=True)
@click.option("--omega", type=int, required=True)
@click.option("--r", "r", type=int, required=True, help="Recovery threshold (indices needed).")
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True)
@format_option
@_exit_codes()
def partial(ell, omega, r, tol, fmt) -> None:
    """Expected reads to recover at least r of the ell indices."""
    _emit(
        [
            {
                "kind": "partial",
                "provenance": "formula",
                "ell": ell,
                "omega": omega,
                "r": r,
                "tol": tol,
                "expected": expected_coverage_partial(ell, omega, r, tol),
                "subset_bound": expected_coverage(r, omega, tol),
            }
        ],
        fmt,
    )


@main.command()
@click.option("--ell", type=int, required=True)
@click.option("--omega", type=int, required=True)
@click.option("--k", "k", type=int, required=True, help="Number of labeled sequences.")
@format_option
@_exit_codes()
def ra(ell, omega, k, fmt) -> None:
    """Expected reads to recover one target sequence among k."""
    _emit(
        [
            {
                "kind": "ra",
                "provenance": "formula",
                "ell": ell,
                "omega": omega,
                "k": k,
                "expected": random_access_expectation(ell, omega, k),
            }
        ],
        fmt,
    )


@main.command()
@click.option("--mode", type=click.Choice(MODES), default="recovery", show_default=True)
@click.option("--ell", type=int, required=True)
@click.option("--omega", type=int, required=True)
@click.option("--r", "r", type=int, default=None, help="Threshold for --mode partial.")
@click.option("--k", "k", type=int, default=None, help="Pool size for --mode ra.")
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--max-transmissions", type=int, default=DEFAULT_MAX_TRANSMISSIONS, show_default=True)
@click.option("--strict", is_flag=True, help="Exit 4 when any trial was truncated.")
@format_option
@_exit_codes()
def sim(mode, ell, omega, r, k, trials, seed, max_transmissions, strict, fmt) -> None:
    """Monte Carlo estimate of a coverage expectation (deterministic per seed)."""
    config = SimConfig(
        params=CoverageParams(ell=ell, omega=omega, r=r, k=k),
        trials=trials,
        seed=seed,
        max_transmissions=max_transmissions,
        mode=mode,
    )
    report = run_simulation(config)
    _emit(
        [
            {
                "kind": "sim",
                "provenance": "simulation",
                "mode": mode,
                "ell": ell,
                "omega": omega,
                "r": r,
                "k": k,
                "trials": trials,
                "seed": seed,
                "max_transmissions": max_transmissions,
                "mean": report.mean,
                "std_error": report.std_error,
                "ci_low": None if report.ci95 is None else report.ci95[0],
                "ci_high": None if report.ci95 is None else report.ci95[1],
                "truncated_trials": report.truncated_trials,
            }
        ],
        fmt,
    )
    if strict and report.truncated_trials > 0:
        click.echo(f"error: {report.truncated_trials} truncated trial(s) under --strict", err=True)
        sys.exit(EXIT_STRICT_TRUNCATION)


def _load_table_decoder(code: CompositeCode, n: int, path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read table decoder {path!r}: {exc}")
    if not isinstance(raw, dict):
        raise click.UsageError(f"table decoder {path!r} must hold a JSON object of count vectors")
    overrides = {}
    for key, value in raw.items():
        tokens = key.split(",")
        # int() would also read " 0", "+10" and "1_0"; a count is ASCII digits only
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise click.UsageError(f"bad count-vector key {key!r} in {path!r}")
        overrides[tuple(map(int, tokens))] = value
    try:
        return custom_decoder_from_table(code, n, overrides)
    except ValueError as exc:
        raise click.UsageError(f"invalid table decoder: {exc}")


@main.command("code-eval")
@click.option("--code", "code_spec", required=True, help="Inline code spec or a file containing one.")
@click.option("--n", type=int, required=True, help="Reads per symbol.")
@click.option("--decoder", "decoder_spec", default="mld", show_default=True, help="mld or table:<file.json>.")
@format_option
@_exit_codes()
def code_eval(code_spec, n, decoder_spec, fmt) -> None:
    """Per-symbol success probabilities, f_min, and f_avg of a code.

    Code specs: binary shorthand "0.4,0.5,0.6"; general "q=Q; p11 p12 ...|p21 ...";
    families "qplus1:q=2", "omega:n=2,q=2", "binary4:n=3", "distinct:q=4,parts=1+2|3+4".
    The spec may also be the path of a file holding one of those forms.
    """
    max_enum = _max_enum()
    if os.path.isfile(code_spec):
        with open(code_spec, "r", encoding="utf-8") as fh:
            code_spec = fh.read().strip()
    code = parse_code_spec(code_spec)
    if decoder_spec == "mld":
        decoder = None  # no overrides: maximum likelihood everywhere
    elif decoder_spec.startswith("table:"):
        decoder = _load_table_decoder(code, n, decoder_spec[len("table:"):])
    else:
        raise click.UsageError(f"unknown decoder {decoder_spec!r}; use mld or table:<file>")
    result = evaluate_code(code, n, decoder=decoder, max_enum=max_enum)
    base = {
        "kind": "symbol",
        "provenance": "formula",
        "n": n,
        "code": _render_code(s.probs for s in code.symbols),
        "decoder": decoder_spec,
        "symbol_index": None,
        "symbol": None,
        "p_succ": None,
        "f_min": None,
        "f_avg": None,
    }
    rows = [
        dict(base, symbol_index=i, symbol=_render_symbol(s.probs), p_succ=result.per_symbol_success[s])
        for i, s in enumerate(code.symbols)
    ]
    rows.append(dict(base, kind="summary", f_min=result.f_min, f_avg=result.f_avg))
    _emit(rows, fmt)


@main.command()
@click.option("--family", type=click.Choice(list(_FAMILIES)), required=True)
@click.option("--q", "q", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--parts", default=None, help="Partition for --family distinct, e.g. 1+2|3+4.")
@click.option("--verify-grid", "verify_grid", type=float, default=None, help="Grid step for the binary4 oracle check.")
@format_option
@_exit_codes()
def design(family, q, n, parts, verify_grid, fmt) -> None:
    """Construct an optimal code family and report its figures of merit."""
    max_enum = _max_enum()
    if verify_grid is not None and family != "binary4":
        raise click.UsageError("--verify-grid applies to --family binary4 only")
    options = {"q": q, "n": n, "parts": parts}
    build, needed = _FAMILIES[family]
    try:
        arguments = _family_arguments(family, {k: v for k, v in options.items() if v is not None})
    except KeyError:
        raise click.UsageError(f"--family {family} requires " + " and ".join(f"--{k}" for k in options if k in needed))
    alpha = None
    if family == "omega":
        # no code is built: its symbols are the grid points, and grid order is the code's sorted
        # order; k / n of two ints rounds correctly, as the code's float(Fraction(k, n)) does
        f_min, f_avg = _grid_code_success(n, q, max_enum)
        symbols = ([k / n for k in counts] for counts in _compositions(n, q))
    else:
        code = build(*arguments)
        q, symbols = code.q, [s.probs for s in code.symbols]
        if family == "qplus1":
            f_min, f_avg = (None, None) if n is None else _base_plus_uniform_success(q, n)
        elif family == "distinct":
            f_min = f_avg = 1
        else:
            alpha = code.values[1]
            result = evaluate_code(code, n, max_enum=max_enum)
            f_min, f_avg = result.f_min, result.f_avg
    base = {
        "kind": "design",
        "provenance": "formula",
        "family": family,
        "q": q,
        "n": n,
        "alpha": alpha,
        "code": _render_code(symbols),
        "f_min": f_min,
        "f_avg": f_avg,
        "grid_step": None,
        "x_star": None,
        "f_min_star": None,
        "alpha_delta": None,
    }
    rows = [base]
    if verify_grid is not None:
        x_star, f_star = optimize_binary4_grid(n, verify_grid, max_enum=max_enum)
        rows.append(
            dict(
                base,
                kind="design-verify",
                provenance="oracle",
                grid_step=verify_grid,
                x_star=x_star,
                f_min_star=f_star,
                alpha_delta=abs(x_star - alpha),
            )
        )
    _emit(rows, fmt)


if __name__ == "__main__":
    main()
