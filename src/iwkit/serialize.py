"""JSON wire formats.

Big integers travel as decimal strings so any JSON parser round-trips them.
Series: {"prime", "precision", "coeffs": [str, ...]}.
Modules: {"prime", "generators": [series | {"phi": c} | {"p_power": m}, ...]}.
Frobenius data: {"g", "prime", "matrix": [[str, ...], ...]}.
Scenarios: {"selmer": module, "mw_shape": [c, ...], "n_max", "expected"?}.
"""

from __future__ import annotations

import json

from .errors import InputError
from .growth import MWShape
from .logmatrix import FrobeniusData, MinorTable, index_sets
from .modules import ElementaryModule
from .series import IwasawaSeries, phi


def _int_field(value: object, name: str) -> int:
    """A JSON integer or decimal string; a boolean or a non-integral number
    is not one, and is never rounded to one."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise InputError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be an integer, got {value!r}") from exc


def declared_prime(d: object) -> int | None:
    """The prime an input object declares; None when it declares none, and
    the object's own parser then refuses the missing field."""
    if not isinstance(d, dict):
        raise InputError(f"expected a JSON object, got {type(d).__name__}")
    return _int_field(d["prime"], "prime") if "prime" in d else None


def declared_n_max(d: dict) -> int | None:
    """The n_max a scenario declares; None when it declares none."""
    n_max = d.get("n_max")
    return None if n_max is None else _int_field(n_max, "n_max")


def _int_list(value: object, name: str) -> list[int]:
    """A JSON list of integers (or decimal strings); a bare string is not one."""
    if not isinstance(value, list):
        raise InputError(f"{name} must be a list, got {value!r}")
    return [_int_field(x, name) for x in value]


def series_from_dict(d: dict, *, degree_cap: int | None = None,
                     precision: int | None = None) -> IwasawaSeries:
    try:
        prime = _int_field(d["prime"], "prime")
        prec = _int_field(d["precision"], "precision")
        coeffs = _int_list(d["coeffs"], "coeffs")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad series object: {exc}") from exc
    if precision is not None:
        prec = min(prec, precision)
    cap = degree_cap if degree_cap is not None else len(coeffs) - 1
    return IwasawaSeries.make(prime, prec, coeffs, cap)


def module_from_dict(d: dict, *, degree_cap: int | None = None,
                     precision: int = 24) -> ElementaryModule:
    try:
        prime = _int_field(d["prime"], "prime")
        raw = list(d["generators"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad module object: {exc}") from exc
    gens = []
    for g in raw:
        if not isinstance(g, dict):
            raise InputError(f"bad generator {g!r}: expected an object")
        if "phi" in g:
            gens.append(phi(_int_field(g["phi"], "phi"), prime=prime,
                            precision=precision, degree_cap=degree_cap))
        elif "p_power" in g:
            m = _int_field(g["p_power"], "p_power")
            if m < 0:
                raise InputError(f"p_power must be >= 0, got {m}")
            # p^m is 0 mod p^N for every m >= N: never compute a larger power
            gens.append(IwasawaSeries.constant(prime ** min(m, precision),
                                               prime, precision,
                                               degree_cap or 0))
        else:
            gens.append(series_from_dict(g, degree_cap=degree_cap,
                                         precision=precision))
    return ElementaryModule(prime, tuple(gens))


def frobenius_from_dict(d: dict, *, precision: int = 24) -> FrobeniusData:
    try:
        g = _int_field(d["g"], "g")
        prime = _int_field(d["prime"], "prime")
        rows = [_int_list(row, "matrix row") for row in d["matrix"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad frobenius object: {exc}") from exc
    return FrobeniusData(g, prime, precision, rows)


def minor_table_to_dict(t: MinorTable) -> dict[str, str]:
    """Each minor of the table, keyed "I|J" in sorted order, as its printed
    string: the coefficients joined by ";", through the cap, the terms
    above the degree as "0".

    Each index set is labelled once, and each minor's coefficients are
    printed by one ``%``, so they never also live as a list of strings
    beside the table and the report.
    """
    label = {s: ",".join(map(str, s)) for s in index_sets(t.g)}
    values = {}
    for (rows, cols), v in sorted(t.values.items()):
        cs = v.coeffs
        # "%d;" per coefficient and "0;" per term above the degree, the
        # last ";" cut
        values[f"{label[rows]}|{label[cols]}"] = (
            ("%d;" * len(cs)) % cs + "0;" * (v.degree_cap + 1 - len(cs)))[:-1]
    return values


def scenario_from_dict(d: dict, *, degree_cap: int | None = None,
                       precision: int = 24):
    try:
        selmer = module_from_dict(d["selmer"], degree_cap=degree_cap,
                                  precision=precision)
        shape = MWShape(tuple(_int_list(d.get("mw_shape", []), "mw_shape")))
        n_max = _int_field(d.get("n_max", 4), "n_max")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad scenario object: {exc}") from exc
    expected = d.get("expected")
    if expected is not None:
        expected = _int_list(expected, "expected")
    return selmer, shape, n_max, expected


def load_json(path: str, digest=None) -> dict:
    """The JSON object stored in ``path``; every input file holds one.

    The file is read once, as bytes, and ``digest`` (any object with an
    ``update(bytes)`` method, such as a SHA-256), when given, is fed the
    very bytes that are parsed.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if digest is not None:
        digest.update(raw)
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: not UTF-8, not JSON, or an integer literal longer than
        # sys.get_int_max_str_digits(); RecursionError: nested too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object, not {type(data).__name__}")
    return data
