"""Spans around p34eq's public functions, installed from outside the package.

Each wrapped call records a span (name, start, end, parent) in flat arrays;
self time is a span's duration minus the time its child spans cover.  Some
spans also record a count or a maximum taken from their arguments or result
(coefficient bits of GCD inputs, rendered characters, oracle samples).

Nothing under src/ changes: wrappers replace the functions in every loaded
p34eq module that holds them, and the tower stages' cached properties are
replaced on the class.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import cached_property

import numpy as np

STAGES = {
    "A": "A", "B": "B", "F5": "F5", "omega": "omega", "n_pseudo": "n_pseudo",
    "m_pseudo": "m_pseudo", "gamma": "gamma", "i1": "i1", "i2": "i2", "i3": "i3",
    "_i4_i7": "i4_i7", "_i6_i9": "i6_i9", "j_squared": "j_squared",
    "k_invariant": "k_invariant", "recovered_y": "recovered",
    "recovered_x": "recovered", "recovered_beta2": "recovered",
}


def _bits(poly) -> int:
    out = 0
    for c in poly.terms.values():
        out = max(out, c.numerator.bit_length(), c.denominator.bit_length())
    return out


def _rf_size(value) -> tuple[int, int]:
    """(terms, max coefficient bits) of a RatFunc or a tuple of them."""
    items = value if isinstance(value, tuple) else (value,)
    terms = bits = 0
    for rf in items:
        terms += len(rf.num.terms) + len(rf.den.terms)
        bits = max(bits, _bits(rf.num), _bits(rf.den))
    return terms, bits


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name_id = array("l")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._undo: list = []

    # ----- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, result) may add counts or maxima."""
        nid = self._name_id(name)
        start, end, parent, name_id, stack = self.start, self.end, self.parent, self.name_id, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name_id.append(self._name_id(name))
        self.end.append(0.0)
        idx = len(self.start)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def peak(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, -1):
            self.maxima[key] = value

    # ----- installing -------------------------------------------------------

    def replace_function(self, original, name: str, after=None) -> None:
        """Swap ``original`` for a traced copy in every p34eq module holding it."""
        traced = self.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("p34eq") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, original))

    def replace_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, cached_property):
            prop = cached_property(self.wrap(name, original.func, after))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        else:
            setattr(cls, attr, self.wrap(name, original, after))
        self._undo.append((cls, attr, original))

    @contextmanager
    def suspended(self):
        """Run the benchmark's own bookkeeping without recording it."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self) -> None:
        """Wrap the layers the benchmark reports on."""
        from p34eq import classify, cli, invariants, ode, oracle
        from p34eq.expr import ast, engine, parser, poly, ratfunc

        def gcd_bits(args, result):
            self.peak("poly.gcd_max_bits", max(_bits(args[0]), _bits(args[1])))

        def zero_kind(args, result):
            if result.is_unknown:
                self.add("engine.is_zero_unknown")
            if result.normal_form is not None:
                self.add("engine.is_zero_exact")

        def chars(args, result):
            self.add("ast.to_string_chars", len(result))

        def oracle_result(args, result):
            self.add("oracle.samples", result.samples_used)
            if result.passed:
                self.add("oracle.verify_passed")

        def stage_size(stage):
            def after(args, result):
                terms, bits = _rf_size(result)
                self.add(f"invariants.{stage}_terms", terms)
                self.peak(f"invariants.{stage}_bits", bits)

            return after

        self.replace_function(poly.poly_gcd, "poly.gcd", gcd_bits)
        self.replace_method(poly.Poly, "__mul__", "poly.mul")
        self.replace_method(poly.Poly, "divmod_by", "poly.div")
        self.replace_method(ratfunc.RatFunc, "__add__", "ratfunc.add")
        self.replace_method(ratfunc.RatFunc, "__mul__", "ratfunc.mul")
        self.replace_method(ratfunc.RatFunc, "deriv", "ratfunc.deriv")
        self.replace_function(engine.is_zero, "engine.is_zero", zero_kind)
        self.replace_function(engine.to_ratfunc, "engine.to_ratfunc")
        self.replace_function(engine.rf_pow, "engine.rf_pow")
        self.replace_function(engine.rf_to_expr, "engine.rf_to_expr")
        self.replace_function(ast.to_string, "ast.to_string", chars)
        self.replace_function(oracle.verify_transform, "oracle.verify", oracle_result)
        for attr, stage in STAGES.items():
            self.replace_method(invariants.InvariantTower, attr, f"invariants.{stage}",
                                stage_size(stage))
        self.replace_function(invariants.compute_invariants, "invariants.compute_invariants")
        self.replace_function(classify.classify, "classify.classify")
        self.replace_function(classify.test_pii, "classify.test_pii")
        self.replace_function(classify.test_p34, "classify.test_p34")
        self.replace_function(parser.parse, "parser")
        self.replace_function(ode.from_rhs, "ode.build")
        self.replace_function(ode.normalize_implicit, "ode.build")
        self.replace_function(cli.run, "cli.run")

    # ----- reading ----------------------------------------------------------

    def save(self, path) -> None:
        """Every span, as arrays: name index, parent index (-1 at the root), start, end."""
        path.parent.mkdir(exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )

    def totals(self, roots=()) -> tuple[dict[str, int], dict[str, float], dict]:
        """Calls and self seconds per span name, and self seconds per (name,
        root) for spans under one of the named ``roots`` (their nearest)."""
        n = len(self.start)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        under: dict[tuple[str, str], float] = {}
        if n == 0:
            return calls, self_s, under
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        per_calls = np.bincount(name_id, minlength=k)
        per_self = np.bincount(name_id, weights=own, minlength=k)
        for i, name in enumerate(self.names):
            calls[name] = int(per_calls[i])
            self_s[name] = float(per_self[i])
        # label 1 + j under roots[j], 0 elsewhere; pointer jumping up the parents
        label = np.zeros(n, dtype=np.int64)
        for j, root in enumerate(roots):
            if root in self._ids:
                label[name_id == self._ids[root]] = 1 + j
        up = parent.copy()
        while True:
            todo = np.nonzero((label == 0) & (up >= 0))[0]
            if len(todo) == 0:
                break
            above = up[todo]
            label[todo] = label[above]
            up[todo] = up[above]
        per_label = np.bincount(name_id * (1 + len(roots)) + label, weights=own,
                                minlength=k * (1 + len(roots)))
        for i, name in enumerate(self.names):
            for j, root in enumerate(roots):
                under[name, root] = float(per_label[i * (1 + len(roots)) + 1 + j])
        return calls, self_s, under
