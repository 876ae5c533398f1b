"""Span tracer that wraps snclab's public functions from outside.

``Tracer.installed()`` replaces each traced function or method wherever a
snclab module binds it, records one span (name, parent, start, end and,
for ``rref_mod``, rows x cols) per call into flat in-memory arrays, and
restores the originals on exit.  Self time is a span's duration minus the
durations of its direct children.  Nothing is written until ``save``.

Single-threaded use only: the parent of a span is the innermost open span.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array
from typing import Dict, List, Set

import numpy as np

# rref_mod calls with rows * cols at or above this are encoder-system shapes
# ((n_c m) x (n_v m), 468 x 864 at N = 72); decoder, DE and oracle calls stay
# below 2 * 36 * 72.
LARGE_CELLS = 1 << 16

ROOT = "cli"

# (module, attribute or Class.method, span name)
TARGETS = [
    ("kernels", "rref_mod", "kernels.rref_mod"),
    ("kernels", "matmul_mod", "kernels.matmul_mod"),
    ("linalg", "random_full_rank", "linalg.random_full_rank"),
    ("linalg", "Subspace.from_rows", "linalg.subspace_ops"),
    ("linalg", "Subspace.add", "linalg.subspace_ops"),
    ("linalg", "Subspace.intersect", "linalg.subspace_ops"),
    ("linalg", "Subspace.transformed", "linalg.subspace_ops"),
    ("linalg", "AffineSubspace.add", "linalg.subspace_ops"),
    ("linalg", "AffineSubspace.intersect", "linalg.subspace_ops"),
    ("linalg", "AffineSubspace.image", "linalg.subspace_ops"),
    ("channel", "transmit", "channel.transmit"),
    ("ensemble", "build_code", "ensemble.build_code"),
    ("ensemble", "LiftedCode.system_rref", "ensemble.system_rref"),
    ("ensemble", "encode", "ensemble.encode"),
    ("decoder", "decode", "decoder.decode"),
    ("decoder", "iterate", "decoder.iterate"),
    ("decoder", "decide", "decoder.decide"),
    ("decoder", "recover_noise_space", "decoder.recover_noise_space"),
    ("de", "population_de_run", "de.population_de_run"),
    ("de", "_sample_kernel_dim", "de.sample_kernel_dim"),
    ("de", "sample_intersection_dims", "de.sample_intersection_dims"),
    ("de", "evaluate_deviation", "de.evaluate_deviation"),
]

# (metric, unit, better) in the order they are reported
LAYER_METRICS = [
    ("kernels.rref_mod.calls", "count", "lower"),
    ("kernels.rref_mod.self_s", "s", "lower"),
    ("kernels.rref_mod.large.calls", "count", "lower"),
    ("kernels.rref_mod.large.self_s", "s", "lower"),
    ("kernels.rref_mod.cells", "cells", "lower"),
    ("kernels.matmul_mod.calls", "count", "lower"),
    ("kernels.matmul_mod.self_s", "s", "lower"),
    ("linalg.random_full_rank.calls", "count", "lower"),
    ("linalg.random_full_rank.self_s", "s", "lower"),
    ("linalg.random_full_rank.accept_ratio", "ratio", "higher"),
    ("linalg.subspace_ops.calls", "count", "lower"),
    ("linalg.subspace_ops.self_s", "s", "lower"),
    ("channel.transmit.calls", "count", "lower"),
    ("channel.transmit.self_s", "s", "lower"),
    ("ensemble.build_code.self_s", "s", "lower"),
    ("ensemble.system_rref.calls", "count", "lower"),
    ("ensemble.system_rref.s", "s", "lower"),
    ("ensemble.encode.self_s", "s", "lower"),
    ("ensemble.encode.useful_ratio", "ratio", "higher"),
    ("decoder.decode.calls", "count", "lower"),
    ("decoder.decode.s", "s", "lower"),
    ("decoder.rounds", "count", "lower"),
    ("decoder.iterate.ms_per_round", "ms", "lower"),
    ("decoder.decide.self_s", "s", "lower"),
    ("decoder.recover_noise_space.self_s", "s", "lower"),
    ("de.population_de_run.s", "s", "lower"),
    ("de.population.samples", "count", "lower"),
    ("de.sample_intersection_dims.s", "s", "lower"),
    ("de.evaluate_deviation.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    def __init__(self):
        self.names: List[str] = [ROOT]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cells = array("q")
        self._stack: List[int] = []
        self.missing: Set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, sized: bool = False):
        nid = self._name_id(name)
        names, parents, starts, ends, cells = self.name, self.parent, self.start, self.end, self.cells
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cells.append(math.prod(np.shape(args[0])) if sized else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def root(self, fn, *args):
        """Call fn(*args) inside the root span."""
        return self._wrap(fn, ROOT)(*args)

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        undo = []
        try:
            for module, attr, name in TARGETS:
                mod = sys.modules.get(f"snclab.{module}")
                owner_name, _, key = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                if owner is None or key not in vars(owner):
                    self.missing.add(f"{module}.{attr}")
                    continue
                orig = vars(owner)[key]
                if owner_name:  # a method, patched on its class
                    is_cm = isinstance(orig, classmethod)
                    wrapped = self._wrap(orig.__func__ if is_cm else orig, name)
                    wrapped = classmethod(wrapped) if is_cm else wrapped
                    places = [(owner, key)]
                else:  # a function, rebound wherever a snclab module imported it
                    wrapped = self._wrap(orig, name, sized=name == "kernels.rref_mod")
                    places = [
                        (m, k)
                        for n, m in list(sys.modules.items()) if n.split(".")[0] == "snclab"
                        for k, v in vars(m).items() if v is orig
                    ]
                for place, k in places:
                    undo.append((place, k, orig))
                    setattr(place, k, wrapped)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "cells": np.frombuffer(self.cells, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, rounds: int, useful_encodes: int, overhead_s: float) -> Dict[str, float]:
        """Per-layer metrics per traced round (ratios over all rounds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child

        def mask(name):
            return a["name"] == self.names.index(name) if name in self.names else np.zeros(dur.size, bool)

        def children_of(parent_mask, name):
            """Per span: number of direct children with the given name."""
            kids = mask(name) & has_parent
            counts = np.bincount(a["parent"][kids], minlength=dur.size)
            return counts[parent_mask]

        rref = mask("kernels.rref_mod")
        large = rref & (a["cells"] >= LARGE_CELLS)
        rfr = mask("linalg.random_full_rank")
        rank_tests = int(children_of(rfr, "kernels.rref_mod").sum())
        encodes = int(mask("ensemble.encode").sum())
        iterate = mask("decoder.iterate")
        system = mask("ensemble.system_rref")

        def ratio(num, den):
            return num / den if den else 0.0

        total = {
            "kernels.rref_mod.calls": rref.sum(),
            "kernels.rref_mod.self_s": self_t[rref].sum(),
            "kernels.rref_mod.large.calls": large.sum(),
            "kernels.rref_mod.large.self_s": self_t[large].sum(),
            "kernels.rref_mod.cells": a["cells"][rref].sum(),
            "kernels.matmul_mod.calls": mask("kernels.matmul_mod").sum(),
            "kernels.matmul_mod.self_s": self_t[mask("kernels.matmul_mod")].sum(),
            "linalg.random_full_rank.calls": rfr.sum(),
            "linalg.random_full_rank.self_s": self_t[rfr].sum(),
            "linalg.subspace_ops.calls": mask("linalg.subspace_ops").sum(),
            "linalg.subspace_ops.self_s": self_t[mask("linalg.subspace_ops")].sum(),
            "channel.transmit.calls": mask("channel.transmit").sum(),
            "channel.transmit.self_s": self_t[mask("channel.transmit")].sum(),
            "ensemble.build_code.self_s": self_t[mask("ensemble.build_code")].sum(),
            "ensemble.system_rref.calls": (children_of(system, "kernels.rref_mod") > 0).sum(),
            "ensemble.system_rref.s": dur[system].sum(),
            "ensemble.encode.self_s": self_t[mask("ensemble.encode")].sum(),
            "decoder.decode.calls": mask("decoder.decode").sum(),
            "decoder.decode.s": dur[mask("decoder.decode")].sum(),
            "decoder.rounds": iterate.sum(),
            "decoder.decide.self_s": self_t[mask("decoder.decide")].sum(),
            "decoder.recover_noise_space.self_s": self_t[mask("decoder.recover_noise_space")].sum(),
            "de.population_de_run.s": dur[mask("de.population_de_run")].sum(),
            "de.population.samples": (children_of(mask("de.sample_kernel_dim"), "kernels.rref_mod") > 0).sum(),
            "de.sample_intersection_dims.s": dur[mask("de.sample_intersection_dims")].sum(),
            "de.evaluate_deviation.self_s": self_t[mask("de.evaluate_deviation")].sum(),
            "cli.self_s": self_t[mask(ROOT)].sum(),
        }
        out = {k: float(v) / rounds for k, v in total.items()}
        out["linalg.random_full_rank.accept_ratio"] = ratio(int(rfr.sum()), rank_tests)
        out["ensemble.encode.useful_ratio"] = ratio(useful_encodes, encodes)
        out["decoder.iterate.ms_per_round"] = 1e3 * ratio(float(dur[iterate].sum()), int(iterate.sum()))
        out["trace.overhead_s"] = overhead_s
        return {name: out[name] for name, _, _ in LAYER_METRICS}
