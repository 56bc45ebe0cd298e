"""Value semantics of iwkit's record types: construction, ==, hash, repr,
immutability and copying, the same for every type."""

import copy
import subprocess
import sys
from pathlib import Path

import pytest

import iwkit  # noqa: F401  imports every module that defines a record type
from iwkit._value import Value
from iwkit.config import Config
from iwkit.cyclotomic import CyclotomicElement
from iwkit.growth import MWShape, RankLedger, RkOptions, SelmerInvariants
from iwkit.logmatrix import FrobeniusData, LogMatrix, MinorTable
from iwkit.modules import ElementaryModule, TowerLevel, TowerReport
from iwkit.padic import PadicInt, SnfResult
from iwkit.series import IwasawaSeries, WeierstrassFactorization

SRC = Path(__file__).resolve().parent.parent / "src"

_S = IwasawaSeries(3, 24, (3, 1), 5)
_LEVEL = TowerLevel(1, 0, 1, 1, 1)

# (type, its fields in order with one admissible value each)
CASES = [
    (Config, {"prime": 5, "precision": 12, "n_max": 2, "degree_cap": 40,
              "margin": 3, "output_format": "json"}),
    (CyclotomicElement, {"prime": 3, "level": 1, "precision": 24,
                         "coeffs": (1, 2), "truncation_warning": True}),
    (SelmerInvariants, {"lambda_": 2, "mu": 1}),
    (MWShape, {"c_list": (0, 1, 1)}),
    (RkOptions, {"k": 1, "a": 0, "pairs": ((0, 1), (1, 0))}),
    (RankLedger, {"e": (1, 1), "a": (1, 0), "r_plus": (1, 1),
                  "r_minus": (1, 0)}),
    (FrobeniusData, {"g": 1, "prime": 3, "precision": 24,
                     "c_p": ((0, 3**24 - 1), (1, 0))}),
    (LogMatrix, {"entries": ((_S,),), "denom_exponent": 1}),
    (MinorTable, {"n": 1, "g": 1, "prime": 3, "precision": 24,
                  "values": {((1,), (1,)): _S}}),
    (ElementaryModule, {"prime": 3, "generators": (_S,)}),
    (TowerLevel, {"n": 1, "zp_rank": 0, "finite_length": 1, "nabla": 1,
                  "predicted": 1}),
    (TowerReport, {"prime": 3, "levels": (_LEVEL,), "stabilization_level": 0,
                   "lambda_invariant": 1, "mu_invariant": 0, "n0": 1,
                   "min_valid_n0": 0, "non_finite_levels": (2,)}),
    (PadicInt, {"prime": 3, "residue": 5, "precision": 4}),
    (SnfResult, {"elementary_exponents": (0, 1), "rank_indicators": 2,
                 "transform_valid": True}),
    (IwasawaSeries, {"prime": 3, "precision": 24, "coeffs": (3, 1, 0),
                     "degree_cap": 5}),
    (WeierstrassFactorization, {"mu": 0, "lambda_": 1,
                                "distinguished": _S, "unit": _S}),
]


@pytest.mark.parametrize("cls,fields", CASES, ids=[c.__name__ for c, _ in CASES])
def test_value_semantics(cls, fields):
    a, b = cls(*fields.values()), cls(**fields)
    assert a == b and not a != b
    assert a != object()
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(a, name)!r}" for name in fields) + ")"
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    if cls is MinorTable:
        # its values are a dict, so the table is not hashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_cases_name_every_value_type():
    """A new record type cannot skip ``test_value_semantics``."""
    assert {c for c, _ in CASES} == set(_subclasses(Value))


@pytest.mark.parametrize("args,kwargs,message", [
    ((1, 0, 1, 1), {}, "missing field 'predicted'"),
    ((1, 0, 1, 1, 1), {"colour": 1}, "unknown or repeated field 'colour'"),
    ((1, 0, 1, 1, 1), {"n": 2}, "unknown or repeated field 'n'"),
    ((1, 0, 1, 1, 1, 1), {}, "takes 5 fields, got 6"),
], ids=["missing", "unknown", "repeated", "too-many"])
def test_each_field_given_exactly_once(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        TowerLevel(*args, **kwargs)


def test_frobenius_inverse_computed_once():
    frob = FrobeniusData.elliptic(3, 24)
    assert frob._inverse_residues is frob._inverse_residues
    assert frob == FrobeniusData.elliptic(3, 24)


def test_cli_starts_without_dataclasses_inspect_typing_hashlib_or_datetime():
    """``import iwkit.cli`` under ``python -S`` loads none of these:
    dataclasses, inspect and typing together cost about 18 ms of every
    start-up, and hashlib's OpenSSL (``_hashlib``) and datetime about 3.6 ms
    and 3.5 MB of peak memory more.  SHA-256 comes from ``_sha2`` on 3.12+
    and ``_sha256`` before, the timestamp from ``time``."""
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import iwkit.cli; "
              "print(sorted({'dataclasses', 'inspect', 'typing', 'hashlib', "
              "'_hashlib', 'datetime', '_datetime'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_falls_back_to_hashlib_without_builtin_sha256():
    """An interpreter built without ``_sha2`` and ``_sha256`` hashes the
    inputs through ``hashlib`` instead."""
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
              "sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
              "import hashlib, iwkit.cli; "
              "print(iwkit.cli._sha256 is hashlib.sha256)")
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "True"
