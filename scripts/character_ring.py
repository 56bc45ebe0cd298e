#!/usr/bin/env python3
"""Time ``condition_character`` at high levels, below and at theta = n.

    python scripts/character_ring.py --repeats 7 [--against OTHER_CHECKOUT]

Cases: the elliptic C_p = [[0, -1], [1, 0]] at p = 3, n = 7 and 8, and
seeded random C_p at g = 3, p = 3, n = 5, at g = 2, p = 3, n = 5 and at
g = 1, p = 3, n = 7, all at N = 24; levels theta = 1, 2 and n.  The
column values are seeded polynomials of degree <= 8 at the minors' cap
g p^n + 8, so a tree that multiplies at that cap truncates nothing and
every tree must give the same answer.

Each call is ``condition_character(frob, n, cols, theta, margin=0)`` on a
Frobenius matrix and column values made once per case.  With ``--against``,
the iwkit under OTHER_CHECKOUT/src is timed too, alternating with this
tree call by call (the other tree first on odd repeats).  Prints one JSON
document: per case and level the answer and, per tree, the minimum and the
median wall time over ``--repeats`` calls, in milliseconds.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import statistics
import sys
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, g, n); p = 3, N = 24 throughout
CASES = [("elliptic", 1, 7), ("elliptic", 1, 8), ("random", 3, 5),
         ("random", 2, 5), ("random", 1, 7)]
P, N = 3, 24


def _load(src: Path):
    """The iwkit package under ``src``, imported fresh."""
    for name in [m for m in sys.modules if m.split(".")[0] == "iwkit"]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("iwkit")
    finally:
        sys.path.remove(str(src))


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    a = [[x % p for x in r] for r in rows]
    det = 1
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return 0
        a[c], a[piv] = a[piv], a[c]
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, len(a)):
            f = a[i][c] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det


def _inputs(name: str, g: int, n: int):
    """C_p rows and column coefficient lists of one case, seeded by it."""
    rng = random.Random(f"{name} {g} {n}")
    if name == "elliptic":
        rows = [[0, -1], [1, 0]]
    else:
        while True:
            rows = [[rng.randrange(P**N) for _ in range(2 * g)]
                    for _ in range(2 * g)]
            if _det_mod_p(rows, P):
                break
    cols = [[rng.randrange(P**N) for _ in range(rng.randint(1, 9))]
            for _ in range(comb(2 * g, g))]
    return rows, cols


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--against", type=Path, default=None)
    args = ap.parse_args()

    trees = {"this": _load(ROOT / "src")}
    if args.against is not None:
        trees["against"] = _load(args.against / "src")
    out = []
    for name, g, n in CASES:
        rows, cols = _inputs(name, g, n)
        cap = g * P**n + 8
        made = {
            tree: (mod.FrobeniusData(g, P, N, rows),
                   [mod.IwasawaSeries.make(P, N, c, cap) for c in cols])
            for tree, mod in trees.items()}
        for theta in sorted({1, 2, n}):
            times = {tree: [] for tree in trees}
            answers = {}
            for rep in range(args.repeats):
                order = list(trees)
                if rep % 2:
                    order.reverse()
                for tree in order:
                    frob, series = made[tree]
                    t = time.perf_counter()
                    answers[tree] = trees[tree].condition_character(
                        frob, n, series, theta, margin=0)
                    times[tree].append(time.perf_counter() - t)
            if len(set(answers.values())) != 1:
                raise SystemExit(f"{name} g={g} n={n} theta={theta}: "
                                 f"answers differ: {answers}")
            out.append({
                "case": f"{name} g={g} p={P} n={n}", "theta": theta,
                "answer": list(answers["this"]),
                "ms": {tree: {"min": round(1000 * min(ts), 3),
                              "median": round(1000 * statistics.median(ts),
                                              3)}
                       for tree, ts in times.items()}})
    print(json.dumps({"repeats": args.repeats, "precision": N,
                      "rows": out}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
