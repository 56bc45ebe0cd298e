"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install()`` replaces each boundary function of iwkit with a wrapper,
by rebinding the name where its callers look it up (the calling module's
namespace, or the class for methods).  Nothing under ``src/`` changes.  Each
wrapper appends one span (name, start, end, parent span, job, shape) to an
in-memory list; ``write`` dumps the list when the run ends and
``summarize`` turns it into the per-layer metrics.

The job loop is single-threaded and closed, so spans nest strictly and no
work ever waits for a layer: a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time

LAYERS = ("padic", "series", "cyclotomic", "modules", "logmatrix", "growth", "cli")

SNF_SIZES = (27, 81, 243)          # p^n levels; the last bucket is "gt243"
MUL_CAPS = (64, 256, 1024)         # series degree caps; last is "gt1024"

# (span name, [(module, attribute)]): every namespace a caller reads the
# boundary from.  "Class.method" rebinds the method on the class.
BOUNDARIES = [
    ("padic.snf", [("iwkit.padic", "_snf_core")]),
    ("padic.det_inv", [("iwkit.logmatrix", "mat_det"), ("iwkit.logmatrix", "mat_inv"),
                       ("iwkit.cyclotomic", "mat_det")]),
    ("series.mul", [("iwkit.series", "IwasawaSeries.__mul__"),
                    ("iwkit.series", "IwasawaSeries.__rmul__")]),
    ("series.conv", [("iwkit.series", "_conv")]),
    ("series.inv", [("iwkit.series", "_series_inv")]),
    ("series.wprep", [("iwkit.cli", "weierstrass_prepare"),
                      ("iwkit.modules", "weierstrass_prepare")]),
    ("series.divide", [("iwkit.growth", "divide_distinguished")]),
    ("cyclotomic.eval", [("iwkit.logmatrix", "cyclo_eval")]),
    ("modules.mult_matrix", [("iwkit.modules", "_mult_matrix_rows"),
                             ("iwkit.growth", "_mult_matrix_rows")]),
    ("modules.coker", [("iwkit.modules", "_TowerEngine.transition_coker_length")]),
    ("modules.tower", [("iwkit.cli", "tower_report")]),
    ("logmatrix.matmul", [("iwkit.logmatrix", "LogMatrix.matmul")]),
    ("logmatrix.det", [("iwkit.logmatrix", "_series_det")]),
    ("logmatrix.minors", [("iwkit.cli", "minors"), ("iwkit.logmatrix", "minors")]),
    ("logmatrix.h_n", [("iwkit.cli", "h_n"), ("iwkit.logmatrix", "h_n")]),
    ("logmatrix.character", [("iwkit.cli", "condition_character")]),
    ("growth.verify", [("iwkit.cli", "synthetic_tower_verify")]),
    ("growth.assign", [("iwkit.growth", "_assign_shape")]),
    ("cli.parse", [("iwkit.cli", "build_parser"),
                   ("iwkit.serialize", "load_json"),
                   ("iwkit.serialize", "series_from_dict"),
                   ("iwkit.serialize", "module_from_dict"),
                   ("iwkit.serialize", "frobenius_from_dict"),
                   ("iwkit.serialize", "scenario_from_dict")]),
    ("cli.emit", [("iwkit.cli", "_manifest"), ("iwkit.cli", "_emit"),
                  ("iwkit.cli", "_write"),
                  ("iwkit.serialize", "minor_table_to_dict")]),
]


def _snf_shape(args) -> list:
    """(rows, cols, int64?) of a _snf_core call; _ModOps leaves int64
    arithmetic once p^N needs more than 55 bits."""
    rows, p, precision = args[0], args[1], args[2]
    return [len(rows), len(rows[0]) if rows else 0,
            int((p ** precision).bit_length() <= 55)]


def _mul_shape(args) -> list:
    a, b = args[0], args[1]
    cap = a.degree_cap
    if hasattr(b, "degree_cap"):
        cap = min(cap, b.degree_cap)
        return [cap, (cap + 1) * (cap + 2) // 2]
    return [cap, cap + 1]


SHAPES = {"padic.snf": _snf_shape, "series.mul": _mul_shape}


class Tracer:
    """Records spans for the jobs run between ``begin_job`` calls."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.errors = {layer: 0 for layer in LAYERS}

    def begin_job(self, job: int) -> None:
        self.job = job

    def wrap(self, name: str, fn, shape=None):
        """fn, recording one span called name around every call."""
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if layer in self.errors:
                    self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.job,
                                   shape(args) if shape else None)

        return traced

    def install(self) -> None:
        for name, sites in BOUNDARIES:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                owner, _, leaf = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                fn = getattr(target, leaf)
                if name == "cli.parse" and leaf == "build_parser":
                    fn = self._traced_parser(fn)
                setattr(target, leaf, self.wrap(name, fn, SHAPES.get(name)))

    def _traced_parser(self, build_parser):
        def build():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args, None)
            return parser
        return build

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "errors": self.errors}, fh)


def _bucket_names(edges: tuple[int, ...], prefix: str) -> list[str]:
    return [f"{prefix}_le{edge}" for edge in edges] + [f"{prefix}_gt{edges[-1]}"]


def _bucket(value: int, edges: tuple[int, ...], prefix: str) -> str:
    return _bucket_names(edges, prefix)[sum(value > edge for edge in edges)]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric ``summarize`` reports, with its unit."""
    names = [("trace.overhead", "ratio"), ("trace.job_s", "s"),
             ("trace.unattributed_s", "s")]
    for layer in LAYERS:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.errors", "count")]
    for name, _ in BOUNDARIES:
        names.append((f"{name}.self_s", "s"))
    names += [("padic.snf.calls", "count"), ("padic.snf.cells", "count"),
              ("padic.snf.share", "ratio"),
              ("modules.coker_share", "ratio"),
              ("series.conv.calls", "count"), ("series.mul.calls", "count"),
              ("series.mul.coeff_pairs", "count"), ("series.mul.share", "ratio"),
              ("cyclotomic.eval.calls", "count")]
    for path in ("int64", "object"):
        names += [(f"padic.snf.calls.{path}", "count"),
                  (f"padic.snf.self_s.{path}", "s")]
    for key in _bucket_names(SNF_SIZES, "m"):
        names += [(f"padic.snf.calls.{key}", "count"),
                  (f"padic.snf.self_s.{key}", "s")]
    for key in _bucket_names(MUL_CAPS, "cap"):
        names += [(f"series.mul.calls.{key}", "count"),
                  (f"series.mul.self_s.{key}", "s")]
    return names


def summarize(spans: list, errors: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead`` is left for
    the caller, which knows the untraced throughput)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: 0.0 for name, _ in metric_names()}
    snf_under_coker = 0.0
    for idx, (name, start, end, parent, _, shape) in enumerate(spans):
        self_s = end - start - child[idx]
        layer = name.split(".")[0]
        if name == "job":
            out["trace.job_s"] += end - start
            out["trace.unattributed_s"] += self_s
            continue
        out[f"{name}.self_s"] += self_s
        out[f"{layer}.self_s"] += self_s
        if name == "padic.snf":
            rows, cols, int64 = shape
            path = "int64" if int64 else "object"
            size = _bucket(rows, SNF_SIZES, "m")
            out["padic.snf.calls"] += 1
            out["padic.snf.cells"] += rows * cols
            for key in (path, size):
                out[f"padic.snf.calls.{key}"] += 1
                out[f"padic.snf.self_s.{key}"] += self_s
            up = parent
            while up >= 0 and spans[up][0] != "modules.coker":
                up = spans[up][3]
            if up >= 0:
                snf_under_coker += self_s
        elif name == "series.mul":
            cap, pairs = shape
            key = _bucket(cap, MUL_CAPS, "cap")
            out["series.mul.calls"] += 1
            out["series.mul.coeff_pairs"] += pairs
            out[f"series.mul.calls.{key}"] += 1
            out[f"series.mul.self_s.{key}"] += self_s
        elif name == "series.conv":
            out["series.conv.calls"] += 1
        elif name == "cyclotomic.eval":
            out["cyclotomic.eval.calls"] += 1
    for layer, count in errors.items():
        out[f"{layer}.errors"] = count
    total = out["trace.job_s"]
    if total:
        out["padic.snf.share"] = out["padic.snf.self_s"] / total
        out["series.mul.share"] = out["series.mul.self_s"] / total
    if out["padic.snf.self_s"]:
        out["modules.coker_share"] = snf_under_coker / out["padic.snf.self_s"]
    return out
