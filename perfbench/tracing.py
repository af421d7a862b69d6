"""Span tracing of the srelhom layers, installed from outside the package.

The tracer replaces each traced function with a wrapper at every place
that binds it: the defining module's globals, every other srelhom module
that imported the name, the package namespace, and the class attribute
for methods.  Calls made through any of those names are recorded, which
matters because the package mixes `gfmat.rref(...)` attribute calls,
`from .modules import hom_space` imports and intra-module global calls
such as `gfmat.solve` calling `rref`.

A span is (name, start_ns, end_ns, parent, op_id, nested, work).  Spans
stay in memory and are written out once, when the run ends.  `nested`
marks a span opened while another span of the same group was open, so
group totals count recursion and same-layer nesting once.  `work` holds
the size counters of the call (matrix cells, unknowns, candidates...).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _shape_cells(state, args, kwargs, result):
    a = args[0]
    return (int(a.shape[0]) * int(a.shape[1]),)


def _list_cells(state, args, kwargs, result):
    a = args[0]
    return (len(a) * (len(a[0]) if a else 0),)


def _hom_unknowns(state, args, kwargs, result):
    src, tgt = args[0], args[1]
    return (src.vdim * tgt.vdim,)


def _split_outcome(state, args, kwargs, result):
    return (len(result.attempted) + int(result.verdict), int(result.verdict))


def _over_bound(state, args, kwargs, result):
    return (int(not result.value.known),)


def _z_candidates(state, args, kwargs, result):
    return (sum(len(lv.attempted) + int(lv.verdict) for lv in result.levels),)


def _levels_before(args, kwargs):
    return len(args[0].frees)


def _levels_built(state, args, kwargs, result):
    return (len(args[0].frees) - state,)


# (span name, module, attribute path, work stat names, work fn, group)
# Work fns read only public attributes of arguments and results.
TARGETS = [
    ("gfmat.rref", "srelhom.gfmat", "rref", ("cells",), _shape_cells, None),
    ("gfmat.nullspace", "srelhom.gfmat", "nullspace", (), None, None),
    ("gfmat.solve", "srelhom.gfmat", "solve", (), None, None),
    ("gfmat.rank", "srelhom.gfmat", "rank", (), None, None),
    ("gfmat.extend_to_basis", "srelhom.gfmat", "extend_to_basis", (), None, None),
    ("modules.hom_space", "srelhom.modules", "hom_space", ("unknowns",),
     _hom_unknowns, None),
    ("modules.ModuleMap.init", "srelhom.modules", "ModuleMap.__init__", (), None, None),
    ("modules.Module.init", "srelhom.modules", "Module.__init__", (), None, None),
    ("modules.Module.validate", "srelhom.modules", "Module._validate", (), None, None),
    ("modules.free_module", "srelhom.modules", "free_module", (), None, None),
    ("modules.module_from_spec", "srelhom.modules", "module_from_spec", (), None, None),
    ("homology.Resolution.ensure", "srelhom.homology", "Resolution.ensure",
     ("levels_built",), (_levels_before, _levels_built), None),
    ("homology.ext", "srelhom.homology", "ext", (), None, None),
    ("homology.long_ext_sequence", "srelhom.homology", "long_ext_sequence", (), None, None),
    ("homology.injective_cocover", "srelhom.homology", "injective_cocover", (), None, None),
    ("dimensions._split_search", "srelhom.dimensions", "_split_search",
     ("candidates", "hits"), _split_outcome, None),
    ("dimensions.s_pd", "srelhom.dimensions", "s_pd", ("over_bound",), _over_bound, None),
    ("dimensions.s_id", "srelhom.dimensions", "s_id", ("over_bound",), _over_bound, None),
    ("dimensions.s_gldim", "srelhom.dimensions", "s_gldim", (), None, None),
    ("dimensions.local_profile", "srelhom.dimensions", "local_profile", (), None, None),
    ("dimensions.check_inequalities", "srelhom.dimensions", "check_inequalities",
     (), None, None),
    ("rings.enumerate_ideals", "srelhom.rings", "enumerate_ideals", (), None, None),
    ("rings.complement_multset", "srelhom.rings", "complement_multset", (), None, None),
    ("rings.mult_closure", "srelhom.rings", "mult_closure", (), None, None),
    ("rings.ring_from_spec", "srelhom.rings", "ring_from_spec", (), None, None),
    ("intmat.smith_normal_form", "srelhom.intmat", "smith_normal_form", ("cells",),
     _list_cells, None),
    ("zmodules.z_s_pd", "srelhom.zmodules", "z_s_pd", ("candidates",), _z_candidates, None),
    ("zmodules.z_ext", "srelhom.zmodules", "z_ext", (), None, None),
    ("zmodules.factor_ring_check", "srelhom.zmodules", "factor_ring_check", (), None, None),
    ("cli.main", "srelhom.cli", "main", (), None, None),
] + [
    ("instances." + fn, "srelhom.instances", fn, (), None, "instances")
    for fn in ("bundled_rings", "random_multset", "random_element", "random_free_map",
               "random_module", "s_torsion_module", "_random_submodule_inclusion",
               "random_s_exact_triple", "random_split_triple", "middle_free_triple",
               "random_s_iso", "nested_multsets")
]

OP_SPAN = "bench.op"


class Tracer:
    """Records spans for wrapped calls; one op (request) at a time."""

    def __init__(self):
        self.names: list[str] = []
        self.stats: list[tuple] = []
        self.groups: list[int] = []
        self.group_names: list[str] = []
        self.spans: list = []
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._undo: list = []
        self._register(OP_SPAN, (), None)

    # -- recording -------------------------------------------------------

    def _register(self, name, stats, group):
        key = group or name
        if key not in self.group_names:
            self.group_names.append(key)
            self._depth.append(0)
        self.names.append(name)
        self.stats.append(stats)
        self.groups.append(self.group_names.index(key))
        return len(self.names) - 1

    def _wrap(self, name_idx, fn, work):
        spans, stack, depth = self.spans, self._stack, self._depth
        group = self.groups[name_idx]
        clock = time.perf_counter_ns
        tracer = self
        before, after = work if isinstance(work, tuple) else (None, work)

        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = depth[group] > 0
            stack.append(idx)
            depth[group] += 1
            state = before(args, kwargs) if before is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[group] -= 1
                spans[idx] = (name_idx, t0, t1, parent, tracer.op_id, nested, ())
            if after is not None:
                spans[idx] = (name_idx, t0, t1, parent, tracer.op_id, nested,
                              after(state, args, kwargs, result))
            return result

        return functools.update_wrapper(traced, fn)

    def op(self, op_id, fn, *args):
        """Run fn(*args) as one op: a root span carrying the op id."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (0, t0, t1, -1, op_id, False, ())
            self.op_id = -1

    # -- installation ----------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target at every binding inside the srelhom package."""
        pkg_mods = [m for k, m in sorted(sys.modules.items())
                    if (k == "srelhom" or k.startswith("srelhom.")) and m is not None]
        for name, modname, path, stats, work, group in targets:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                wrapped = self._wrap(self._register(name, stats, group), original, work)
                self._undo.append((cls, attr, original))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(self._register(name, stats, group), original, work)
            for mod in pkg_mods:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls, self_s, total_s and work sums per span name, over ops only.

        self time is the span's duration minus the durations of its direct
        child spans; total time counts only spans not nested inside
        another span of the same group.
        """
        spans = self.spans
        child_ns = defaultdict(int)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        group_ns = defaultdict(int)
        work = defaultdict(int)
        for idx, span in enumerate(spans):
            if span is None or span[4] < 0:
                continue
            name_idx, t0, t1, _, _, nested, counts = span
            calls[name_idx] += 1
            self_ns[name_idx] += (t1 - t0) - child_ns.get(idx, 0)
            if not nested:
                total_ns[name_idx] += t1 - t0
                group_ns[self.groups[name_idx]] += t1 - t0
            for stat, value in zip(self.stats[name_idx], counts):
                work[(name_idx, stat)] += value
        out = {}
        for idx, name in enumerate(self.names):
            out[name + ".calls"] = calls[idx]
            out[name + ".self_s"] = self_ns[idx] / 1e9
            out[name + ".total_s"] = total_ns[idx] / 1e9
            for stat in self.stats[idx]:
                out["%s.%s" % (name, stat)] = work[(idx, stat)]
        for gid, key in enumerate(self.group_names):
            if key not in self.names:
                out[key + ".total_s"] = group_ns[gid] / 1e9
        return out

    def write(self, path):
        """Write the span table: a name table, then one span per line."""
        with open(path, "w") as fh:
            fh.write("# names\t%s\n" % "\t".join(self.names))
            fh.write("# name\tstart_ns\tend_ns\tparent\top\tnested\twork\n")
            for span in self.spans:
                if span is None:
                    continue
                name_idx, t0, t1, parent, op_id, nested, counts = span
                fh.write("%d\t%d\t%d\t%d\t%d\t%d\t%s\n" % (
                    name_idx, t0, t1, parent, op_id, nested,
                    ",".join(str(c) for c in counts)))
