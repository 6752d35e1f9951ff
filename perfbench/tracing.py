"""Spans around deformalg's public functions, installed from outside the package.

Each traced function is wrapped once and the wrapper is bound under every
module-global name that refers to the original, because `cli` reaches
`fockrep` through the module while `gup`, `symorder` and `fockrep` itself
import `commutator`, `expectation`, `uncertainty_product`, `build_rep`,
`quadratures` and `eval_K` by name.  Self time is the span's duration minus
the time of the traced spans it directly contains, kept on a span stack.

Spans stay in memory as (name, parent span, start, end) rows and are written
out by the caller at the end of the run.  `spectral.eval_K` runs about a
hundred thousand times per round, so it gets counts and self time but no
stored span rows.  The results of `symorder.normal_order` are kept in
`normal_forms`, for the benchmark to realise with the traced `nf_to_matrix`,
which no CLI command calls.
"""

from __future__ import annotations

import time
from collections import defaultdict

TRACED = {
    "cli": ("run_verify_checks", "render_json", "render_csv"),
    "spectral": ("eval_K",),
    "fockrep": (
        "build_rep",
        "quadratures",
        "commutator",
        "expectation",
        "random_state",
        "uncertainty_product",
    ),
    "gup": ("uncertainty_report", "case_bound", "square_sum_bound", "kempf_rescale"),
    "symorder": ("parse_identity", "normal_order", "nf_equal", "expr_to_matrix", "nf_to_matrix"),
}
UNSTORED = frozenset({"spectral.eval_K"})
ROOT = "cli.main"


def _dim_of(name, args):
    """Matrix dimension of a dense-kernel call, for the computed counts."""
    if name == "fockrep.commutator":
        return args[0].shape[0]
    if name == "fockrep.quadratures":
        return args[0].D
    if name == "fockrep.uncertainty_product":
        return args[1].mat_x.shape[0]
    return None


# Dense matrix-matrix products of D x D complex operands, each D^3 complex
# multiply-adds: AB and BA in a commutator, x@x and p@p in quadratures and in
# uncertainty_product (whose [x, p] goes through the traced commutator).
DENSE_PRODUCTS = {
    "fockrep.commutator": 2,
    "fockrep.quadratures": 2,
    "fockrep.uncertainty_product": 2,
}


class Tracer:
    """Records spans while installed; aggregates self time, calls and kernel counts."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.normal_forms = []
        self.names = [ROOT]
        self.index = {ROOT: 0}
        self.rows = []  # [name index, parent row or -1, start, end]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.cmadd = defaultdict(int)
        self._stack = []  # [row or -1, child seconds]
        self._patches = []
        self._wrappers = {}
        for mod_name, fn_names in TRACED.items():
            for fn_name in fn_names:
                full = f"{mod_name}.{fn_name}"
                self.index[full] = len(self.names)
                self.names.append(full)
                original = getattr(modules[mod_name], fn_name)
                wrapper = self._wrap(full, original)
                self._wrappers[id(original)] = (original, wrapper)

    def _enter(self, name_idx, stored):
        row = -1
        if stored:
            parent = self._stack[-1][0] if self._stack else -1
            row = len(self.rows)
            self.rows.append([name_idx, parent, time.perf_counter(), 0.0])
        self._stack.append([row, 0.0])
        return row

    def _exit(self, name, row, start):
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - start
        if row >= 0:
            self.rows[row][3] = end
        if self._stack:
            self._stack[-1][1] += duration
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1

    def _wrap(self, name, fn):
        name_idx = self.index[name]
        stored = name not in UNSTORED
        products = DENSE_PRODUCTS.get(name)
        sink = self.normal_forms if name == "symorder.normal_order" else None

        def traced(*args, **kwargs):
            row = self._enter(name_idx, stored)
            start = time.perf_counter() if row < 0 else self.rows[row][2]
            try:
                result = fn(*args, **kwargs)
                if sink is not None:
                    sink.append(result)
                return result
            finally:
                self._exit(name, row, start)
                if products:
                    self.cmadd[name] += products * _dim_of(name, args) ** 3

        return traced

    def root(self, call, *args):
        """Run one top-level CLI call as a root span."""
        row = self._enter(0, True)
        try:
            return call(*args)
        finally:
            self._exit(ROOT, row, self.rows[row][2])

    def install(self):
        """Bind every wrapper under each module-global name of its original."""
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def inclusive_under(self, names, parent):
        """Total duration of stored spans named in `names` whose parent is a `parent` span."""
        want = {self.index[n] for n in names}
        parent_idx = self.index[parent]
        rows = self.rows
        return sum(
            r[3] - r[2]
            for r in rows
            if r[0] in want and r[1] >= 0 and rows[r[1]][0] == parent_idx
        )

    def inclusive(self, name):
        idx = self.index[name]
        return sum(r[3] - r[2] for r in self.rows if r[0] == idx)

    def dump(self, t0):
        """Span rows as plain data, times in seconds from t0."""
        return {
            "names": self.names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "rows": [[n, p, s - t0, e - t0] for n, p, s, e in self.rows],
        }
