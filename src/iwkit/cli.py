"""Command-line front end.

Subcommands wrap the library: ``wprep`` (Weierstrass preparation), ``tower``
(brute-force tower indices vs. the closed form), ``growth`` (synthetic
quotient-tower verification), ``logmatrix`` (tower matrices, minors, character
evaluation), ``rksolve`` (signed multiplicity enumeration).

Exit codes: 0 success, 2 invalid input, 3 precision exhaustion, 4 undefined
mathematical result, 5 formula mismatch in verify mode.

``main`` reads and digests a command's input file, and stamps the manifest
and writes the report after the command returns; a command only computes,
so its towers, tables and series are freed before the report is formatted.

Reports embed a manifest (command, config, input digest, version); pass
``--no-timestamp`` to omit wall-clock fields so identical inputs produce
byte-identical output.  The input digest is SHA-256 from CPython's built-in
module (``_sha2``, or ``_sha256`` before 3.12), with ``hashlib`` as the
fallback, so start-up loads no OpenSSL; the timestamp is built from
``time``, without ``datetime``.  A JSON report is exactly
``json.dumps(report, indent=2, sort_keys=True)`` plus a newline, written by
iwkit's own writer (``_json_text``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .config import Config
from .errors import (
    InputError,
    IwkitError,
    PrecisionExhaustedError,
    UndefinedResultError,
)
from .growth import synthetic_tower_verify, rk_solver
from .logmatrix import (WedgeTower, _checked_columns, condition_character, h_n,
                        index_sets, minors)
from .modules import tower_report
from .series import reconstruction_residual_valuation, weierstrass_prepare
from . import serialize

try:
    from _sha2 import sha256 as _sha256          # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256    # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECISION = 3
EXIT_UNDEFINED = 4
EXIT_MISMATCH = 5


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="iwkit",
        description="Exact p-adic tower computations over Z_p[[X]]",
        allow_abbrev=False,
    )
    ap.add_argument("--prime", type=int, default=None)
    ap.add_argument("--precision", type=int, default=None)
    ap.add_argument("--degree-cap", type=int, default=None)
    ap.add_argument("--n-max", type=int, default=None)
    ap.add_argument("--margin", type=int, default=None)
    ap.add_argument("--format", choices=("csv", "json"), default=None)
    ap.add_argument("--no-timestamp", action="store_true",
                    help="omit wall-clock fields for byte-identical reports")
    ap.add_argument("--out", default=None, help="write the report to a file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wprep", help="Weierstrass preparation of a series file")
    p.add_argument("series_file")

    p = sub.add_parser("tower", help="per-level tower indices of a module file")
    p.add_argument("module_file")

    p = sub.add_parser("growth", help="verify increments of a scenario file")
    p.add_argument("scenario_file")

    p = sub.add_parser("logmatrix", help="tower matrices of a Frobenius file")
    p.add_argument("frobenius_file")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--minors", action="store_true")
    p.add_argument("--theta-level", type=int, default=None)
    p.add_argument("--col-values", default=None,
                   help="JSON file with one series per column index set")

    p = sub.add_parser("rksolve", help="admissible signed multiplicities")
    p.add_argument("e", type=int, nargs="+")
    return ap


def _resolve_config(args, file_prime: int | None,
                    file_n_max: int | None = None) -> Config:
    """The effective parameters: the input file's prime and a scenario's own
    n_max first, then the flags, then ``Config``'s defaults.  A ``--prime``
    other than the file's is refused."""
    if args.prime is not None and file_prime is not None and args.prime != file_prime:
        raise InputError(
            f"--prime {args.prime} conflicts with input file prime {file_prime}")
    given = {
        "prime": file_prime if file_prime is not None else args.prime,
        "precision": args.precision,
        "n_max": file_n_max if file_n_max is not None else args.n_max,
        "degree_cap": args.degree_cap,
        "margin": args.margin,
        "output_format": args.format,
    }
    return Config(**{k: v for k, v in given.items() if v is not None})


def _utc_isoformat(seconds: int, micros: int) -> str:
    """``datetime.fromtimestamp(seconds, timezone.utc)`` with ``micros``
    microseconds, in ``isoformat()``'s text: the fraction is left out when
    it is zero."""
    t = time.gmtime(seconds)
    frac = f".{micros:06d}" if micros else ""
    return (f"{t.tm_year:04d}-{t.tm_mon:02d}-{t.tm_mday:02d}T"
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}{frac}+00:00")


def _manifest(command: str, config: Config, digest, no_timestamp: bool,
              started: float) -> dict:
    """The run's provenance block: identical inputs and config yield
    identical manifests unless the wall-clock fields are kept.  ``digest``
    is the SHA-256 object fed the bytes of every input file as it was read,
    None for a run that reads none."""
    manifest = {
        "command": command,
        "config": config.to_dict(),
        "input_digest": digest.hexdigest() if digest is not None else "-",
        "tool_version": __version__,
    }
    if not no_timestamp:
        # datetime.now truncates the clock to whole microseconds
        manifest["timestamp"] = _utc_isoformat(
            *divmod(time.time_ns() // 1000, 1_000_000))
        manifest["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    return manifest


def _emit(manifest: dict, rows: list[dict] | None, kv: dict | None) -> str:
    """The report as text ending in a newline; the CSV header is the first
    row's keys.  The newline is joined in with the rest, never appended to a
    finished report, which would copy the whole of it once more."""
    fmt = manifest["config"]["output_format"]
    if fmt == "json":
        body = {"manifest": manifest}
        if kv is not None:
            body["report"] = kv
        if rows is not None:
            body["rows"] = rows
        return _json_text(body)
    lines = [f"# {k}={json.dumps(v, sort_keys=True)}"
             for k, v in sorted(manifest.items())]
    if kv is not None:
        lines.append("key,value")
        for k, v in kv.items():
            lines.append(f"{k},{_csv_cell(v)}")
    if rows:
        header = list(rows[0])
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_csv_cell(row[col]) for col in header))
    lines.append("")
    return "\n".join(lines)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return str(v)


def _json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    Before 3.13, ``json`` encodes an indented document in pure Python, one
    value at a time; here every piece comes from C (the string escaper,
    ``int.__repr__``, one join per list of strings) and the pieces are
    joined once, the final newline with them.  Dict keys must be strings.
    """
    pieces: list[str] = []
    _json_pieces(value, "\n", pieces.append)
    pieces.append("\n")
    return "".join(pieces)


def _json_pieces(v, nl: str, put) -> None:
    """Pass each piece of ``v``'s JSON text to ``put``; ``nl`` is a newline
    and the indent of the line ``v`` starts on.  The type tests run in
    ``json``'s order, so a bool is never printed as an int."""
    if isinstance(v, str):
        put(_quote(v))
    elif v is None:
        put("null")
    elif v is True:
        put("true")
    elif v is False:
        put("false")
    elif isinstance(v, int):
        put(int.__repr__(v))
    elif isinstance(v, float):
        put(json.dumps(v))  # repr, or NaN, Infinity, -Infinity
    elif isinstance(v, (list, tuple)):
        if not v:
            put("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        try:
            text = comma.join(map(_quote, v))
        except TypeError:  # an item that is not a string
            for x in v:
                put(sep)
                _json_pieces(x, inner, put)
                sep = comma
        else:
            put(sep)
            put(text)
        put(nl + "]")
    elif isinstance(v, dict):
        if not v:
            put("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for k in sorted(v):
            put(sep)
            put(_quote(k))
            put(": ")
            _json_pieces(v[k], inner, put)
            sep = comma
        put(nl + "}")
    else:
        raise TypeError(f"Object of type {type(v).__name__} "
                        "is not JSON serializable")


def _write(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_wprep(args, data: dict, digest) -> tuple:
    config = _resolve_config(args, serialize.declared_prime(data))
    f = serialize.series_from_dict(data, degree_cap=config.degree_cap,
                                   precision=config.precision)
    w = weierstrass_prepare(f, margin=config.margin)
    guard_deg = max(f.degree_cap - 4, 0)
    residual = reconstruction_residual_valuation(f, w, up_to_degree=guard_deg)
    kv = {
        "mu": w.mu,
        "lambda": w.lambda_,
        "distinguished": [str(c) for c in w.distinguished.coeffs],
        "unit_constant_term": str(w.unit.coeffs[0]),
        "residual_valuation": residual,
        "residual_window_degree": guard_deg,
    }
    return config, None, kv, EXIT_OK


def _cmd_tower(args, data: dict, digest) -> tuple:
    config = _resolve_config(args, serialize.declared_prime(data))
    module = serialize.module_from_dict(data, degree_cap=config.degree_cap,
                                        precision=config.precision)
    report = tower_report(module, config.n_max, margin=config.margin)
    rows = [
        {
            "n": lv.n,
            "rank": lv.zp_rank,
            "length": lv.finite_length,
            "nabla_brute": lv.nabla,
            "nabla_closed": lv.predicted,
            "match": lv.match,
        }
        for lv in report.levels if lv.n >= 1
    ]
    kv = {
        "lambda": report.lambda_invariant,
        "mu": report.mu_invariant,
        "stabilization_level": report.stabilization_level,
    }
    code = EXIT_OK
    if module.generators and all(lv.nabla is None for lv in report.levels
                                 if lv.n >= 1):
        code = EXIT_UNDEFINED
    return config, rows, kv, code


def _cmd_growth(args, data: dict, digest) -> tuple:
    # a scenario's own n_max is the one computed, so the manifest and the
    # derived degree_cap follow it
    config = _resolve_config(
        args, serialize.declared_prime(data.get("selmer", {})),
        serialize.declared_n_max(data))
    selmer, shape, _, expected = serialize.scenario_from_dict(
        data, degree_cap=config.degree_cap, precision=config.precision)
    report = synthetic_tower_verify(selmer, shape, config.n_max,
                                    margin=config.margin)
    rows = [
        {
            "n": lv.n,
            "s_n": lv.finite_length if lv.zp_rank == 0 else None,
            "increment": lv.nabla,
            "predicted": lv.predicted,
            "match": lv.match,
        }
        for lv in report.levels
    ]
    kv = {
        "lambda": report.lambda_invariant,
        "mu": report.mu_invariant,
        "n0": report.n0,
        "min_valid_n0": report.min_valid_n0,
        "stabilization_level": report.stabilization_level,
        "non_finite_levels": list(report.non_finite_levels),
    }
    # the top level decides: undefined without a prediction or an observed
    # increment (so also when no level is finite), a mismatch when they or
    # the expected increments disagree
    top = report.levels[-1]
    observed = [lv.nabla for lv in report.levels[1:]]
    if top.match is None:
        code = EXIT_UNDEFINED
    elif not top.match or (expected is not None
                           and observed[:len(expected)] != list(expected)):
        code = EXIT_MISMATCH
    else:
        code = EXIT_OK
    return config, rows, kv, code


def _cmd_logmatrix(args, data: dict, digest) -> tuple:
    if args.theta_level is not None and args.col_values is None:
        # the level only chooses the character the column values meet
        raise InputError("--theta-level needs --col-values")
    config = _resolve_config(args, serialize.declared_prime(data))
    frob = serialize.frobenius_from_dict(data, precision=config.precision)
    cols = None
    if args.col_values is not None:
        col_data = serialize.load_json(args.col_values, digest)
        cols = []
        for s in index_sets(frob.g):
            key = ",".join(map(str, s))
            if key not in col_data:
                raise InputError(f"col-values file misses index set {key}")
            cols.append(serialize.series_from_dict(
                col_data[key], degree_cap=config.degree_cap,
                precision=config.precision))
        # every column is checked before anything is pushed
        cols = _checked_columns(frob, cols)
    # one per run: h_n and minors share its powers, and all three its Phi_k
    tower = WedgeTower(frob)
    h = h_n(frob, args.n, tower=tower)
    kv = {
        "g": frob.g,
        "n": args.n,
        "block_anti_diagonal": frob.block_anti_diagonal(),
    }
    rows = [
        {"i": i + 1, "j": j + 1,
         "coeffs": list(map(str, h.entry(i, j).coeffs)) or ["0"]}
        for i in range(2 * frob.g) for j in range(2 * frob.g)
    ]
    # each minor is one ";"-joined string; they go after the character keys
    printed = {}
    if args.minors:
        table = minors(frob, args.n, tower=tower)
        printed = serialize.minor_table_to_dict(table)
    if args.col_values is not None:
        nonzero, val = condition_character(
            frob, args.n, cols, args.theta_level, margin=config.margin,
            tower=tower)
        kv["character_nonzero"] = nonzero
        kv["character_min_valuation"] = val
        kv["theta_level"] = args.theta_level if args.theta_level is not None else args.n
    kv.update((f"minor_{k}", v) for k, v in sorted(printed.items()))
    return config, rows, kv, EXIT_OK


def _cmd_rksolve(args, data, digest) -> tuple:
    config = _resolve_config(args, None)
    options = rk_solver(args.e)
    rows = [
        {
            "k": opt.k,
            "a": opt.a,
            "pairs": [f"({r}/{s})" for r, s in opt.pairs],
        }
        for opt in options
    ]
    return config, rows, None, EXIT_OK


# command: (its computation, the argument that names its input file)
_DISPATCH = {
    "wprep": (_cmd_wprep, "series_file"),
    "tower": (_cmd_tower, "module_file"),
    "growth": (_cmd_growth, "scenario_file"),
    "logmatrix": (_cmd_logmatrix, "frobenius_file"),
    "rksolve": (_cmd_rksolve, None),
}


def main(argv: list[str] | None = None) -> int:
    """Run one command: read and digest its input file, compute, then stamp
    the manifest and write the report.  A command gets the parsed file (None
    for ``rksolve``) and returns (config, rows, kv, exit code), its rows and
    kv holding only printed strings and small ints; the CSV header is its
    rows' key order."""
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    command, input_arg = _DISPATCH[args.command]
    try:
        data = digest = None
        if input_arg is not None:
            digest = _sha256()
            data = serialize.load_json(getattr(args, input_arg), digest)
        config, rows, kv, code = command(args, data, digest)
        manifest = _manifest(args.command, config, digest, args.no_timestamp,
                             started)
        _write(args, _emit(manifest, rows, kv))
        return code
    except PrecisionExhaustedError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except UndefinedResultError as exc:
        print(f"undefined result: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except IwkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
