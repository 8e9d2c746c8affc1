"""Span tracing of the bnsr layers from outside the package.

``Tracer.install()`` wraps the public functions of each layer module and a
few hot methods on their classes.  A module function is replaced in every
``bnsr`` module namespace that binds it, so calls between modules and
inside a module go through the wrapper.  Every wrapped call adds its
duration to its layer and subtracts it from the self time of the caller's
layer, so a layer's self time is its spans' durations minus their child
spans.  Arithmetic in ``rings`` and ``Fraction`` counts toward the layer
that runs it.  ``uninstall()`` puts the originals back.

Spans (id, name, start, end, parent id, job id) of module functions are
kept in memory, up to ``MAX_SPANS``, and written out by ``write_spans``;
method calls are too many to keep and are only timed and counted.
Generator functions are left alone: their bodies run in the consumer's
frame, which is in the same layer for every generator the package has.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("groups", "valuations", "resolutions", "homology", "linalg", "spheres", "witness", "catalog", "cli")

# (layer, class name exported by bnsr, method names): the class and every
# subclass in the layer module that defines the method gets a wrapper
METHODS = (
    ("groups", "Group", ("multiply", "ball")),
    ("valuations", "Valuation", ("of_key",)),
    ("resolutions", "Resolution", ("boundary",)),
)

MAX_SPANS = 50_000

CATALOG_CHECKS = ("verify_product_formula", "meinert_report", "theorem2_applicability",
                  "theorem3_check", "cross_validate", "catalog_violations")


def _nnz(cols) -> int:
    items = cols.items() if isinstance(cols, dict) else cols
    return sum(len(col) for _, col in items)


# counter hooks: (tracer, args, kwargs, result, caller layer) -> None
def _h_multiply(t, a, k, r, caller):
    t.count["groups.multiply_calls"] += 1


def _h_ball(t, a, k, r, caller):
    t.count["groups.ball_calls"] += 1
    t.count["groups.ball_elems"] += len(r)


def _h_of_key(t, a, k, r, caller):
    t.count["valuations.of_key_calls"] += 1


def _h_boundary(t, a, k, r, caller):
    t.count["resolutions.boundary_calls"] += 1


def _h_truncate(t, a, k, r, caller):
    t.count["homology.truncate_calls"] += 1
    t.count["homology.truncate_cells"] += sum(len(b) for b in r.basis.values())


def _h_filling(t, a, k, r, caller):
    t.count["homology.filling_searches"] += 1


def _h_rank(t, a, k, r, caller):
    t.count["linalg.rank_calls"] += 1
    t.count["linalg.rank_nnz"] += _nnz(a[0])


def _h_solve(t, a, k, r, caller):
    t.count["linalg.solve_calls"] += 1
    t.count["linalg.solve_nnz"] += _nnz(a[0])
    t.count["linalg.solve_hits"] += r is not None


def _h_kernel(t, a, k, r, caller):
    t.count["linalg.kernel_calls"] += 1


def _h_snf(t, a, k, r, caller):
    M = a[0] if a else k["M"]
    t.count["linalg.snf_calls"] += 1
    t.count["linalg.snf_entries"] += sum(len(row) for row in M)
    t.snf_inputs.add(tuple(tuple(row) for row in M))


def _h_witness(t, a, k, r, caller):
    t.count["spheres.witness_calls"] += 1
    t.count["spheres.witness_empty"] += r is None


def _h_arrangement(t, a, k, r, caller):
    t.count["spheres.arrangement_calls"] += 1
    t.count["spheres.arrangement_cells"] += len(r)


def _h_pipeline(t, a, k, r, caller):
    t.count["witness.pipeline_calls"] += 1


def _h_catalog_check(t, a, k, r, caller):
    if caller != "catalog":
        t.count["catalog.checks"] += 1


def _h_cli(t, a, k, r, caller):
    t.count["cli.calls"] += 1
    argv = list(a[0] if a else k.get("argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            t.count["cli.out_bytes"] += os.path.getsize(path)


HOOKS = {
    ("groups", "Group.multiply"): _h_multiply,
    ("groups", "Group.ball"): _h_ball,
    ("valuations", "Valuation.of_key"): _h_of_key,
    ("resolutions", "Resolution.boundary"): _h_boundary,
    ("homology", "truncate"): _h_truncate,
    ("homology", "max_filling_value"): _h_filling,
    ("linalg", "rank_columns"): _h_rank,
    ("linalg", "solve_columns"): _h_solve,
    ("linalg", "kernel_columns"): _h_kernel,
    ("linalg", "smith_normal_form"): _h_snf,
    ("spheres", "cell_witness"): _h_witness,
    ("spheres", "arrangement_cells"): _h_arrangement,
    ("witness", "witness_pipeline"): _h_pipeline,
    ("cli", "main"): _h_cli,
}
HOOKS.update({("catalog", name): _h_catalog_check for name in CATALOG_CHECKS})


class Tracer:
    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.count: Counter = Counter()
        self.snf_inputs: set = set()
        self.spans: list = []
        self.dropped = 0
        self.job_id = -1
        self.absent: list[str] = []
        self._restore: list = []
        self._next_id = 0
        # frame: [child time, layer, span id]; the root stands for job code
        self._stack = [[0.0, "bench", -1]]

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, keep_spans: bool):
        hook = HOOKS.get((layer, name))
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_spans:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent[2]
            frame = [0.0, layer, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                parent[0] += dur
                if keep_spans:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((span_id, name, t0, t1, parent[2], self.job_id))
                    else:
                        self.dropped += 1
            if hook is not None:
                hook(self, args, kwargs, result, parent[1])
            return result

        return wrapper

    def install(self) -> None:
        mods = {}
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"bnsr.{layer}")
            except ImportError:  # a layer that is gone leaves its names absent
                continue
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "bnsr" or n.startswith("bnsr.")]
        wrapped_names = set()
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrapper = self._wrap(fn, layer, name, keep_spans=True)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, attr, wrapper)
                            self._restore.append((ns, attr, fn))
                wrapped_names.add((layer, name))
        import bnsr

        for layer, cls_name, methods in METHODS:
            base = getattr(bnsr, cls_name, None) if layer in mods else None
            classes = [base] if base is not None else []
            if base is not None:
                classes += [c for c in vars(mods[layer]).values()
                            if inspect.isclass(c) and c is not base and issubclass(c, base)]
            for meth in methods:
                label = f"{cls_name}.{meth}"
                for cls in classes:
                    fn = cls.__dict__.get(meth)
                    if inspect.isfunction(fn):
                        setattr(cls, meth, self._wrap(fn, layer, label, keep_spans=False))
                        self._restore.append((cls, meth, fn))
                        wrapped_names.add((layer, label))
        self.absent = sorted(f"{layer}.{name}" for layer, name in HOOKS if (layer, name) not in wrapped_names)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def per_layer(self, jobs: int) -> dict:
        """Per-layer metrics, each per job, with their units."""
        c = self.count
        per = max(jobs, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer] / per, "s/job")
        counts = (
            "groups.multiply_calls", "groups.ball_calls", "groups.ball_elems",
            "valuations.of_key_calls", "resolutions.boundary_calls",
            "homology.truncate_calls", "homology.truncate_cells", "homology.filling_searches",
            "linalg.rank_calls", "linalg.rank_nnz", "linalg.solve_calls", "linalg.solve_nnz",
            "linalg.kernel_calls", "linalg.snf_calls", "linalg.snf_entries",
            "spheres.witness_calls", "spheres.arrangement_calls", "spheres.arrangement_cells",
            "witness.pipeline_calls", "catalog.checks", "cli.calls", "cli.out_bytes",
        )
        for name in counts:
            out[name] = (c[name] / per, "count/job")
        out["linalg.solve_hit_ratio"] = (_ratio(c["linalg.solve_hits"], c["linalg.solve_calls"]), "ratio")
        out["linalg.snf_distinct_ratio"] = (_ratio(len(self.snf_inputs), c["linalg.snf_calls"]), "ratio")
        out["spheres.witness_empty_ratio"] = (_ratio(c["spheres.witness_empty"], c["spheres.witness_calls"]), "ratio")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
