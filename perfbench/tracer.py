"""Span tracing of pseudotherm's layers, installed from outside the package.

`Tracer.install` wraps the public functions of `cli`, `thermo`,
`dynamics` and `linalg`, the public functions of `models` and the public
methods of its model classes, then rebinds every module-level name in the
package that referred to an original (so the names `cli` and `thermo`
import with `from ... import` are traced too).  Calls through private
tables (such as the CLI's subcommand dict) stay inside their caller's span.

Each span records its id, name, parent span, point id, start, end and two
integer quantities (control values evaluated, steps accepted, rows kept,
bytes written).  Spans are kept in memory and summarised per iteration;
self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "thermo", "dynamics", "linalg")
# metric, metric_inverse and metric_rate report as one per-layer name
MODEL_ALIASES = {"metric_inverse": "metric", "metric_rate": "metric"}
FIELDS = (
    ("id", np.int64),
    ("name", np.int64),
    ("parent", np.int64),
    ("point", np.int64),
    ("start", np.float64),
    ("end", np.float64),
    ("qty", np.int64),
    ("qty2", np.int64),
)


def _control_values(args, result):
    """Evaluations in one model call: one per control value (batched calls count k)."""
    v = args[1] if len(args) > 1 else None
    return (1 if v is None or isinstance(v, (int, float)) else int(np.size(v))), 0


QUANTITIES = {
    "dynamics.propagate": lambda args, r: (r.steps_used, 0),
    "thermo.two_time_work": lambda args, r: (len(r.rows), len(r.cols)),
    "cli.write_csv": lambda args, r: (os.path.getsize(args[0]), 0),
}

# per-layer metric name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "dynamics.propagate.calls": "count",
    "dynamics.propagate.self_s": "s",
    "dynamics.propagate.steps_accepted": "count",
    "dynamics.propagate.us_per_accepted_step": "us",
    "dynamics.propagate.model_evals_per_accepted_step": "1",
    "models.hermitian_frame.evals": "count",
    "models.hermitian_frame.self_s": "s",
    "models.metric.evals": "count",
    "models.metric.self_s": "s",
    "models.metric_min_eigenvalue.evals": "count",
    "models.metric_min_eigenvalue.self_s": "s",
    "models.hamiltonian.evals": "count",
    "models.hamiltonian.self_s": "s",
    "linalg.eigendecompose.calls": "count",
    "linalg.eigendecompose.self_s": "s",
    "linalg.eigendecompose.us_per_call": "us",
    "linalg.build_metric.calls": "count",
    "linalg.build_metric.self_s": "s",
    "linalg.classify_spectrum.calls": "count",
    "linalg.classify_spectrum.self_s": "s",
    "thermo.two_time_work.calls": "count",
    "thermo.two_time_work.self_s": "s",
    "thermo.two_time_work.rows_kept_ratio": "1",
    "thermo.quasistatic_cycle.calls": "count",
    "thermo.quasistatic_cycle.self_s": "s",
    "thermo.thermal_state.calls": "count",
    "thermo.thermal_state.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.write_csv.bytes": "B",
    "trace.overhead": "1",
}
# metrics that must repeat exactly between runs at one seed
COUNT_SUFFIXES = (".calls", ".evals", ".steps_accepted", ".bytes")


def _public_function(obj, module_name: str, attr: str) -> bool:
    return not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module_name


def rebind(package: str, replacements: dict) -> None:
    """Point every module-level name in the package at its replacement.

    replacements maps id(original) -> (original, replacement).
    """
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == package or mod_name.startswith(package + "."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    setattr(mod, attr, replacements[id(obj)][1])


class Capture:
    """Keeps what two_time_work returns, for checks the CLI's CSVs cannot feed."""

    def __init__(self):
        self.results = []

    def install(self, package: str = "pseudotherm") -> None:
        original = sys.modules[f"{package}.thermo"].two_time_work

        @functools.wraps(original)
        def capturing(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        rebind(package, {id(original): (original, capturing)})

    def take(self) -> list:
        out, self.results = self.results, []
        return out


class Tracer:
    def __init__(self, point_root: str | None = None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one (span id, name id, parent id, point id, start, end, qty, qty2)
        # tuple per span, appended when the span ends
        self.records: list[tuple] = []
        self._next_id = [0]
        self._stack = [-1]
        self.point_id = 0
        self._root = point_root

    def next_point(self) -> None:
        self.point_id += 1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn, quantity=None):
        nid = self._name_id(span_name)
        records, stack, next_id = self.records, self._stack, self._next_id
        perf = time.perf_counter
        is_root = span_name == self._root
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next_id[0]
            next_id[0] = sid + 1
            parent = stack[-1]
            stack.append(sid)
            returned = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = perf()
                stack.pop()
                # recorded even when the call raised (with zero quantities),
                # so span ids stay dense and index the taken arrays
                q, q2 = quantity(args, result) if returned and quantity is not None else (0, 0)
                records.append((sid, nid, parent, tracer.point_id, t0, t1, q, q2))
                if is_root:
                    tracer.point_id += 1

        return traced

    def install(self, package: str = "pseudotherm") -> None:
        replacements = {}
        for layer in (*LAYERS, "models"):
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if _public_function(obj, mod.__name__, attr):
                    name = f"{layer}.{attr}"
                    replacements[id(obj)] = (obj, self.wrap(name, obj, QUANTITIES.get(name)))
                elif layer == "models" and inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"models.{MODEL_ALIASES.get(meth, meth)}"
                            setattr(obj, meth, self.wrap(name, fn, _control_values))
        rebind(package, replacements)

    def take(self) -> dict:
        """The spans recorded so far as arrays indexed by span id; the tracer starts empty again."""
        rows = sorted(self.records)
        self.records.clear()
        self._next_id[0] = 0
        cols = list(zip(*rows)) if rows else [()] * len(FIELDS)
        return {field: np.array(col, dtype=dtype) for (field, dtype), col in zip(FIELDS, cols)}

    def save(self, path, spans: dict, provenance: dict) -> None:
        np.savez_compressed(path, span_names=np.array(self.names), provenance=np.array(repr(provenance)), **spans)

    def metrics(self, spans: dict) -> dict:
        """Per-layer metrics of one iteration's spans."""
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        n = dur.size
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        name, qty, qty2 = spans["name"], spans["qty"], spans["qty2"]

        def sel(span_name):
            return name == self._ids.get(span_name, -1)

        # spans with a propagate call among their ancestors
        prop = sel("dynamics.propagate")
        in_propagate = np.zeros(n, dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            up = anc >= 0
            in_propagate[up] |= prop[anc[up]]
            anc[up] = parent[anc[up]]

        def ratio(a, b):
            return float(a) / float(b) if b else 0.0

        m = {}
        for span_name in (
            "dynamics.propagate",
            "linalg.eigendecompose",
            "linalg.build_metric",
            "linalg.classify_spectrum",
            "thermo.two_time_work",
            "thermo.quasistatic_cycle",
            "thermo.thermal_state",
            "cli.main",
        ):
            mask = sel(span_name)
            m[f"{span_name}.calls"] = int(mask.sum())
            m[f"{span_name}.self_s"] = float(self_time[mask].sum())
        for model in ("hermitian_frame", "metric", "metric_min_eigenvalue", "hamiltonian"):
            mask = sel(f"models.{model}")
            m[f"models.{model}.evals"] = int(qty[mask].sum())
            m[f"models.{model}.self_s"] = float(self_time[mask].sum())

        steps = int(qty[prop].sum())
        evals = qty[(sel("models.hamiltonian") | sel("models.hermitian_frame")) & in_propagate].sum()
        m["dynamics.propagate.steps_accepted"] = steps
        m["dynamics.propagate.us_per_accepted_step"] = 1e6 * ratio(dur[prop].sum(), steps)
        m["dynamics.propagate.model_evals_per_accepted_step"] = ratio(evals, steps)
        eig = sel("linalg.eigendecompose")
        m["linalg.eigendecompose.us_per_call"] = 1e6 * ratio(dur[eig].sum(), eig.sum())
        ttw = sel("thermo.two_time_work")
        m["thermo.two_time_work.rows_kept_ratio"] = ratio(qty[ttw].sum(), qty2[ttw].sum())
        csv = sel("cli.write_csv")
        m["cli.write_csv.self_s"] = float(self_time[csv].sum())
        m["cli.write_csv.bytes"] = int(qty[csv].sum())
        return m
