"""Span tracing around the public functions of kreinfield, from outside.

The tracer rebinds each listed function in its defining module and in every
kreinfield module that imported it by name, so calls made through either
name are recorded.  Spans are kept in memory as parallel arrays
(name, start, end, parent, op id) and written out once, when the pass ends.
Private helpers are not wrapped: their time counts as their public caller's
self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute); "Class.method" attributes wrap the method
TRACED = (
    ("nodes.leggauss", "numpy.polynomial.legendre", "leggauss"),
    ("hssc.compute_scalar_factors", "kreinfield.hssc", "compute_scalar_factors"),
    ("hssc.hssc_certify", "kreinfield.hssc", "hssc_certify"),
    ("hssc.partition_sums", "kreinfield.hssc", "partition_sums"),
    ("hssc.tensor_schwartz_norm", "kreinfield.hssc", "tensor_schwartz_norm"),
    ("hssc.bound_integral_vector", "kreinfield.hssc", "bound_integral_vector"),
    ("hssc.build_gram_pair", "kreinfield.hssc", "build_gram_pair"),
    ("hssc.search_indefinite_gram", "kreinfield.hssc", "search_indefinite_gram"),
    ("hssc.krein_reduce", "kreinfield.hssc", "krein_reduce"),
    ("wightman.truncated_momentum_eval", "kreinfield.wightman", "truncated_momentum_eval"),
    ("wightman.factorized_eval", "kreinfield.wightman", "factorized_eval"),
    ("wightman.three_point_eval_2d", "kreinfield.wightman", "three_point_eval_2d"),
    ("wightman.three_point_eval_1d", "kreinfield.wightman", "three_point_eval_1d"),
    ("wightman.two_point_shell_eval", "kreinfield.wightman", "two_point_shell_eval"),
    ("wightman.two_point_density_eval", "kreinfield.wightman", "two_point_density_eval"),
    ("wightman.bracket_scalar", "kreinfield.wightman", "bracket_scalar"),
    ("wightman.line_quadrature", "kreinfield.wightman", "line_quadrature"),
    ("wightman.laplace_bridge_check", "kreinfield.wightman", "laplace_bridge_check"),
    ("testfunctions.TestFunction.__call__", "kreinfield.testfunctions", "TestFunction.__call__"),
    ("schwinger.kernel_product_integral", "kreinfield.schwinger", "kernel_product_integral"),
    ("schwinger.smeared_truncated_correlator", "kreinfield.schwinger",
     "smeared_truncated_correlator"),
    ("partitions.enumerate_partitions", "kreinfield.partitions", "enumerate_partitions"),
    ("partitions.moments_from_cumulants", "kreinfield.partitions", "moments_from_cumulants"),
    ("partitions.cumulants_from_moments", "kreinfield.partitions", "cumulants_from_moments"),
    ("euclidean.white_noise_field", "kreinfield.euclidean", "white_noise_field"),
    ("euclidean.estimate_schwinger_mc", "kreinfield.euclidean", "estimate_schwinger_mc"),
    ("euclidean.estimate_moment_table", "kreinfield.euclidean", "estimate_moment_table"),
    ("euclidean.convolve", "kreinfield.euclidean", "convolve"),
    ("green.green_alpha_lattice", "kreinfield.green", "green_alpha_lattice"),
    ("lattice.sample_function", "kreinfield.lattice", "sample_function"),
    ("cli.main", "kreinfield.cli", "main"),
)

PACKAGE_MODULES = (
    "cli", "euclidean", "green", "hssc", "lattice", "partitions",
    "schwinger", "testfunctions", "wightman",
)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.leggauss_n = array("i")
        self.current_op = -1
        self._stack = []

    def _wrap(self, nid, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.failed.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[idx] = 1
                raise
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()

        return traced

    def install(self):
        """Wrap every traced function and rebind the names that alias it."""
        for mod in PACKAGE_MODULES:
            importlib.import_module(f"kreinfield.{mod}")
        for nid, (name, modname, attr) in enumerate(TRACED):
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(nid, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(nid, original)
            if name == "nodes.leggauss":
                wrapped = self._count_orders(wrapped)
            for other in list(sys.modules.values()):
                if other is None:
                    continue
                if other is module or other.__name__.startswith("kreinfield"):
                    if getattr(other, attr, None) is original:
                        setattr(other, attr, wrapped)

    def _count_orders(self, fn):
        orders = self.leggauss_n

        @functools.wraps(fn)
        def counted(deg, *args, **kwargs):
            orders.append(int(deg))
            return fn(deg, *args, **kwargs)

        return counted

    def columns(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())

    def summary(self) -> dict:
        """Per span name: calls, self seconds, inclusive seconds and errors.

        Inclusive time counts only outermost spans of a name, so a function
        that re-enters itself through an integrand is not counted twice.
        """
        cols = self.columns()
        nid, parent = cols["name_id"], cols["parent"]
        dur = cols["end"] - cols["start"]
        nspans = len(dur)
        child = np.zeros(nspans)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        nested = np.zeros(nspans, dtype=bool)
        for i in range(nspans):
            p = parent[i]
            while p >= 0:
                if nid[p] == nid[i]:
                    nested[i] = True
                    break
                p = parent[p]
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        incl_s = np.bincount(nid, weights=np.where(nested, 0.0, dur), minlength=k)
        errors = np.bincount(nid, weights=cols["failed"].astype(float), minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "incl_s": float(incl_s[i]),
                "errors": int(errors[i]),
            }
        n_legendre = len(self.leggauss_n)
        out["nodes.leggauss"]["distinct_frac"] = (
            len(set(self.leggauss_n)) / n_legendre if n_legendre else 0.0
        )
        out["spans"] = nspans
        return out


def span_cost(samples: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a trivial function."""

    def noop():
        return None

    best = float("inf")
    for _ in range(5):
        wrapped = Tracer()._wrap(0, noop)
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        best = min(best, (time.perf_counter() - t0 - bare) / samples)
    return max(best, 0.0)
