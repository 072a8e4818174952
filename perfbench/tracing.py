"""Per-layer spans recorded from outside the library.

The tracer wraps public functions and methods of the bggkit modules with
timing shims.  A span is one call of a wrapped function; its self time is
its duration minus the durations of the spans it caused.  Spans are not
kept one by one (the kernel alone makes millions of calls): each span
name aggregates self time, calls and exceptions in memory, and a few
names also aggregate a work count taken from their arguments or result.

Everything is single-threaded, so a plain list serves as the span stack.
``install`` patches every reference to a target inside the bggkit
modules (functions imported by name included) and ``uninstall`` puts the
originals back.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute path).  The layer is the part before the
# first dot.  Every name shares its layer's self-time total; the ones in
# METRICS are also reported by name.
TARGETS = (
    ("rootdata.build_root_system", "rootdata", "build_root_system"),
    ("rootdata.weyl_group", "rootdata", "RootSystem.weyl_group"),
    ("rootdata.dot_orbit", "rootdata", "RootSystem.dot_orbit"),
    ("rootdata.kostant_p", "rootdata", "RootSystem.kostant_p"),
    ("rootdata.weyl_dimension", "rootdata", "RootSystem.weyl_dimension"),
    ("liealg.construct", "liealg", "LieAlgebraData.__init__"),
    ("liealg.casimir", "liealg", "casimir"),
    ("liealg.mul", "liealg", "UEAElement.__mul__"),
    ("liealg.scale", "liealg", "UEAElement.__rmul__"),
    ("liealg.add", "liealg", "UEAElement.__add__"),
    ("liealg.transpose", "liealg", "UEAElement.transpose"),
    ("liealg.hc_project", "liealg", "UEAElement.hc_project"),
    ("liealg.evaluate_at", "liealg", "UEAElement.evaluate_at"),
    ("pbw.multiply_monomials", "pbw", "StraightenKernel.multiply_monomials"),
    ("pbw.normal_order_word", "pbw", "StraightenKernel.normal_order_word"),
    ("category.weight_space_basis", "category", "weight_space_basis"),
    ("category.shapovalov_polys", "category", "shapovalov_polynomial_matrix"),
    ("category.shapovalov_matrix", "category", "shapovalov_matrix"),
    ("category.simple_weight_mult", "category", "simple_weight_mult"),
    ("category.verma_is_simple", "category", "verma_is_simple"),
    ("category.verma_act", "category", "VermaSlice.act"),
    ("category.decomposition_matrix", "category", "decomposition_matrix"),
    ("category.block_report", "category", "block_report"),
    ("exactla.rank", "exactla", "rank"),
    ("exactla.nullspace", "exactla", "nullspace"),
    ("exactla.invert", "exactla", "invert"),
    ("gaussnorm.log_norm", "gaussnorm", "log_norm"),
    ("gaussnorm.vp", "gaussnorm", "vp"),
    ("gaussnorm.check_ultrametric", "gaussnorm", "check_ultrametric"),
    ("harish.central_character", "harish", "central_character"),
    ("harish.central_character_init", "harish", "CentralCharacter.__init__"),
    ("harish.is_central", "harish", "is_central"),
    ("cli.main", "cli", "main"),
    ("jsonio.frac_to_json", "jsonio", "frac_to_json"),
    ("jsonio.weight_to_json", "jsonio", "weight_to_json"),
    ("jsonio.parse_weight", "jsonio", "parse_weight"),
    ("jsonio.element_to_json", "jsonio", "element_to_json"),
)

LAYERS = ("rootdata", "liealg", "pbw", "category", "exactla", "gaussnorm",
          "harish", "cli", "jsonio")

# name -> (unit, how the value is read from the aggregated stats)
METRICS = {
    "rootdata.build_root_system.s": ("s", ("self", "rootdata.build_root_system")),
    "rootdata.weyl_group.s": ("s", ("self", "rootdata.weyl_group")),
    "rootdata.dot_orbit.s": ("s", ("self", "rootdata.dot_orbit")),
    "rootdata.dot_orbit.weights": ("count", ("work", "rootdata.dot_orbit")),
    "liealg.construct.s": ("s", ("self", "liealg.construct")),
    "liealg.construct.calls": ("count", ("calls", "liealg.construct")),
    "liealg.mul.s": ("s", ("self", "liealg.mul")),
    "liealg.transpose.s": ("s", ("self", "liealg.transpose")),
    "liealg.hc_project.s": ("s", ("self", "liealg.hc_project")),
    "liealg.hc_project.kept_ratio": ("ratio", ("ratio", "liealg.hc_project")),
    "liealg.evaluate_at.s": ("s", ("self", "liealg.evaluate_at")),
    "liealg.evaluate_at.calls": ("count", ("calls", "liealg.evaluate_at")),
    "pbw.multiply_monomials.s": ("s", ("self", "pbw.multiply_monomials")),
    "pbw.multiply_monomials.calls": ("count", ("calls", "pbw.multiply_monomials")),
    "pbw.normal_order_word.s": ("s", ("self", "pbw.normal_order_word")),
    "pbw.normal_order_word.calls": ("count", ("calls", "pbw.normal_order_word")),
    "pbw.terms_out": ("count", ("work", "pbw.terms_out")),
    "category.shapovalov_polys.s": ("s", ("self", "category.shapovalov_polys")),
    "category.shapovalov_polys.calls": ("count", ("calls", "category.shapovalov_polys")),
    "category.shapovalov_polys.entries": ("count", ("work", "category.shapovalov_polys")),
    "category.shapovalov_polys.hit_ratio": ("ratio", ("ratio", "category.shapovalov_polys")),
    "category.verma_act.calls": ("count", ("calls", "category.verma_act")),
    "category.simple_weight_mult.calls": ("count", ("calls", "category.simple_weight_mult")),
    "category.decomposition_matrix.s": ("s", ("self", "category.decomposition_matrix")),
    "category.block_report.s": ("s", ("self", "category.block_report")),
    "exactla.rank.s": ("s", ("self", "exactla.rank")),
    "exactla.rank.calls": ("count", ("calls", "exactla.rank")),
    "exactla.rank.cells": ("count", ("work", "exactla.rank")),
    "exactla.nullspace.s": ("s", ("self", "exactla.nullspace")),
    "exactla.nullspace.calls": ("count", ("calls", "exactla.nullspace")),
    "gaussnorm.log_norm.s": ("s", ("self", "gaussnorm.log_norm")),
    "gaussnorm.log_norm.calls": ("count", ("calls", "gaussnorm.log_norm")),
    "gaussnorm.vp.s": ("s", ("self", "gaussnorm.vp")),
    "gaussnorm.vp.calls": ("count", ("calls", "gaussnorm.vp")),
    "harish.central_character.s": ("s", ("self", "harish.central_character")),
    "cli.main.s": ("s", ("self", "cli.main")),
    "jsonio.s": ("s", ("layer_self", "jsonio")),
}
for _layer in LAYERS:
    METRICS[f"{_layer}.errors"] = ("count", ("layer_errors", _layer))


class Stat:
    """Aggregate of one span name."""

    __slots__ = ("self_s", "calls", "errors", "work", "num", "den")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0
        self.errors = 0
        self.work = 0
        self.num = 0
        self.den = 0

    def copy(self):
        other = Stat()
        for field in Stat.__slots__:
            setattr(other, field, getattr(self, field))
        return other


class Tracer:
    """Span stack plus per-name aggregates; see the module docstring."""

    def __init__(self):
        self.stats = {name: Stat() for name, _, _ in TARGETS}
        self.stats["pbw.terms_out"] = Stat()
        # each frame: [time covered by child spans, span name, token
        # taken at entry by a _BEFORE hook]
        self.stack = []
        # time covered by spans entered with an empty stack
        self.top_level_s = 0.0
        self._patched = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, name, before(tracer) if before else None]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.self_s += elapsed - frame[0]
                stat.calls += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer.top_level_s += elapsed
            if after is not None:
                after(tracer, stat, args, out, frame)
            return out

        return span

    def install(self):
        """Patch every target in the imported bggkit modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "bggkit"
                                           or name.startswith("bggkit."))}
        for name, modname, path in TARGETS:
            owner = modules[f"bggkit.{modname}"]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            # module-level function: replace it wherever it was imported
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading -------------------------------------------------------

    def snapshot(self):
        return {name: stat.copy() for name, stat in self.stats.items()}

    def layer_self(self, layer, stats=None):
        stats = self.stats if stats is None else stats
        return sum(s.self_s for n, s in stats.items()
                   if n.split(".", 1)[0] == layer)

    def layer_errors(self, layer):
        return sum(s.errors for n, s in self.stats.items()
                   if n.split(".", 1)[0] == layer)

    def metrics(self):
        """Every per-layer metric, as {name: {"value", "unit"}}."""
        out = {}
        for metric, (unit, (kind, key)) in METRICS.items():
            if kind == "self":
                value = self.stats[key].self_s
            elif kind == "calls":
                value = self.stats[key].calls
            elif kind == "work":
                value = self.stats[key].work
            elif kind == "ratio":
                stat = self.stats[key]
                value = stat.num / stat.den if stat.den else 0.0
            elif kind == "layer_self":
                value = self.layer_self(key)
            else:
                value = self.layer_errors(key)
            out[metric] = {"value": value, "unit": unit}
        return out


# -- work counts taken after a span returns ------------------------------

def _count_weights(tracer, stat, args, out, frame):
    stat.work += len(out)


def _hc_kept(tracer, stat, args, out, frame):
    stat.num += len(out.terms)
    stat.den += len(args[0].terms)


def _terms_out(tracer, stat, args, out, frame):
    tracer.stats["pbw.terms_out"].work += len(out)


def _top_level_terms_out(tracer, stat, args, out, frame):
    stack = tracer.stack
    if not stack or not stack[-1][1].startswith("pbw."):
        tracer.stats["pbw.terms_out"].work += len(out)


def _rank_cells(tracer, stat, args, out, frame):
    matrix = args[0]
    stat.work += len(matrix) * (len(matrix[0]) if matrix else 0)


def _kernel_calls(tracer):
    return (tracer.stats["pbw.multiply_monomials"].calls
            + tracer.stats["pbw.normal_order_word"].calls)


def _shapovalov_polys(tracer, stat, args, out, frame):
    # a hit returns the cached matrix without a kernel span inside it
    basis, _ = out
    stat.den += 1
    if _kernel_calls(tracer) == frame[2]:
        stat.num += 1
    else:
        stat.work += len(basis) * len(basis)


_BEFORE = {"category.shapovalov_polys": _kernel_calls}

_AFTER = {
    "rootdata.dot_orbit": _count_weights,
    "liealg.hc_project": _hc_kept,
    "pbw.multiply_monomials": _terms_out,
    "pbw.normal_order_word": _top_level_terms_out,
    "exactla.rank": _rank_cells,
    "category.shapovalov_polys": _shapovalov_polys,
}
