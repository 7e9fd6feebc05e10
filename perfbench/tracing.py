"""Span tracing of nillab's public entry points, from outside the library.

`Tracer.install()` replaces each traced module function in every loaded
nillab module that holds it (both `nillab.nilmetric.dist_quotient_block` and
the `dist_quotient_block` that `nillab.systems` imported), replaces `NilGroup` and
`ArcUnion` methods on the class, and replaces the callables of each
`SystemHandle` on the instance: `Tracer.wrap_system` for handles built before
tracing, and the wrapped `make_*` constructors for handles built while it is
on. `uninstall()` restores every original.

Every wrapped call adds to its entry point's calls, busy time and self time
(busy time minus the time of wrapped calls made inside it) and to its work
counters. Calls of experiment-level entry points are also kept as spans
(id, parent id, name, start, end, op) in memory and written out at the end,
where op names the benchmark operation that caused the span;
kernels called thousands of times per pass (group law, metrics, steps, the
per-F independence check, arc intersections) are kept as counters and busy
time only.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of the module-level functions that get wrapped
MODULE_FUNCTIONS = [
    ("nilgroup", "power_sequence"), ("nilgroup", "load_group"),
    ("nilgroup", "validate_group"),
    ("nilmetric", "dist_quotient_block"), ("nilmetric", "dist_group_block"),
    ("nilmetric", "orbit_distance_growth"),
    ("systems", "product_grid"), ("systems", "make_rotation"),
    ("systems", "make_skew_product"), ("systems", "make_nilsystem"),
    ("systems", "make_sturmian"), ("systems", "make_fullshift"),
    ("systems", "make_inverse_limit"),
    ("furstenberg", "make_furstenberg"), ("furstenberg", "coboundary_prefix_residuals"),
    ("complexity", "shadowing_net"), ("complexity", "complexity_curve"),
    ("complexity", "cover_complexity"), ("complexity", "classify_growth"),
    ("independence", "check_independence"), ("independence", "find_ip_independence"),
    ("independence", "sturmian_language"), ("independence", "independence_ladder"),
    ("arcs", "cut_midpoints"),
    ("cubes", "rp_test"), ("cubes", "cube_criterion"),
    ("cubes", "validate_rp_witness"), ("cubes", "_candidate_pool"),
    ("averages", "birkhoff"),
    ("cli", "main"),
    ("reports", "write_csv"), ("reports", "write_json"),
]
# (module, class, method)
CLASS_METHODS = [
    ("nilgroup", "NilGroup", "mul_block"), ("nilgroup", "NilGroup", "inv_block"),
    ("nilgroup", "NilGroup", "reduce_block"),
    ("arcs", "ArcUnion", "intersect"),
]
SYSTEM_CALLABLES = ("step_block", "inverse_step_block", "metric_block")
SYSTEM_NAMES = ("rotation", "skew", "nilsystem", "fullshift", "sturmian", "furstenberg")
# called thousands of times per pass: counters and busy time, no span records
# (so are every system's step, metric and orbit callables)
HOT = {"nilgroup.mul_block", "nilgroup.inv_block", "nilgroup.reduce_block",
       "nilgroup.power_sequence", "nilmetric.dist_group_block",
       "nilmetric.dist_quotient_block", "independence.check_independence",
       "arcs.ArcUnion.intersect", "arcs.cut_midpoints"}
MAX_SPANS = 200_000


def _rows(*arrays):
    """Row count of the broadcast of coordinate blocks (last axis = coordinates)."""
    shapes = [np.shape(a) for a in arrays]
    shape = shapes[0] if all(s == shapes[0] for s in shapes) else np.broadcast_shapes(*shapes)
    return math.prod(shape[:-1])


def _lattice_candidates(grp, P, Q, params):
    """Lattice translates `dist_quotient_block` enumerates per pair, from the
    box radius it derives (computed here, not counted inside the library)."""
    bound = params.gamma_bound
    if bound is None:
        P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
        bound = 2.0 + max(np.max(np.abs(P)) if P.size else 0.0,
                          np.max(np.abs(Q)) if Q.size else 0.0)
    return 2 * (2 * int(math.ceil(bound)) + 1) ** grp.dim


def _route(rep):
    """Exactness route of an IndependenceReport, read from method and note."""
    if rep.method == "sampled":
        return "sampled"
    note = rep.note
    if note.startswith("arc-intersection"):
        return "arcs"
    if "constraint" in note:
        return "constraints"
    return "partition"


class _Stat:
    __slots__ = ("calls", "busy", "self_", "work")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0
        self.work = defaultdict(float)


class Tracer:
    """Collects spans and per-entry-point counters while `active` is set."""

    def __init__(self):
        self.active = False
        self.op = None              # name of the benchmark op being run
        self.stats = defaultdict(_Stat)
        self.spans = []
        self.dropped_spans = 0
        self.metric_rows = 0
        self.pool_sizes = []
        self._local = threading.local()
        self._next_id = 0
        self._saved = []            # (owner, attribute, original) to restore
        self._systems = []          # (handle, {callable name: original})

    # -- recording -------------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, fn, name, work=None, name_fn=None, hot=False):
        tracer = self
        hot = hot or name in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name_fn(args, kwargs) if name_fn is not None else name
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = [0.0, tracer.metric_rows, None]     # child time, rows at entry, span id
            if not hot:
                tracer._next_id += 1
                frame[2] = tracer._next_id
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                st = tracer.stats[label]
                st.calls += 1
                st.busy += dur
                st.self_ += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if frame[2] is not None:
                    if len(tracer.spans) < MAX_SPANS:
                        pid = None
                        for f in reversed(stack):
                            if f[2] is not None:
                                pid = f[2]
                                break
                        tracer.spans.append((frame[2], pid, label, t0, t1, tracer.op))
                    else:
                        tracer.dropped_spans += 1
            if work is not None:
                work(tracer, st, frame, args, kwargs, result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        import nillab  # noqa: F401  (loads every nillab module)
        mods = {k: v for k, v in sys.modules.items()
                if k == "nillab" or k.startswith("nillab.")}
        for modname, attr in MODULE_FUNCTIONS:
            owner = mods["nillab." + modname]
            orig = getattr(owner, attr)
            name = "%s.%s" % (modname, attr)
            wrapped = self._wrap(orig, name, WORK.get(name),
                                 name_fn=_cli_name if name == "cli.main" else None)
            if attr.startswith("make_"):
                wrapped = self._constructor(wrapped)
            for mod in mods.values():
                if getattr(mod, attr, None) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        for modname, cls_name, meth in CLASS_METHODS:
            cls = getattr(mods["nillab." + modname], cls_name)
            orig = cls.__dict__[meth]
            name = "%s.%s" % (modname, meth) if cls_name == "NilGroup" \
                else "%s.%s.%s" % (modname, cls_name, meth)
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, name, WORK.get(name)))

    def _constructor(self, make):
        tracer = self

        @functools.wraps(make)
        def build(*args, **kwargs):
            handle = make(*args, **kwargs)
            if tracer.active:
                tracer.wrap_system(handle)
            return handle
        return build

    def wrap_system(self, handle):
        """Wrap a SystemHandle's step, metric and orbit callables on the instance."""
        from nillab.systems import SystemHandle
        saved = {}
        for attr in SYSTEM_CALLABLES:
            orig = getattr(handle, attr)
            saved[attr] = orig
            name = "systems.%s.%s" % (handle.name, attr)
            setattr(handle, attr, self._wrap(orig, name, WORK.get(attr), hot=True))
        span = functools.partial(SystemHandle.orbit_span, handle)
        handle.orbit_span = self._wrap(span, "systems.%s.orbit_span" % handle.name,
                                       WORK["orbit_span"], hot=True)
        self._systems.append((handle, saved))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        for handle, saved in self._systems:
            for attr, orig in saved.items():
                setattr(handle, attr, orig)
            del handle.orbit_span
        self._systems.clear()

    # -- results ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, pid, name, t0, t1, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": pid, "name": name,
                                     "start": t0, "end": t1, "op": op}) + "\n")


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv") or []
    sub = next((a for a in argv if not str(a).startswith("-")), "none")
    return "cli.main.%s" % sub


# -- work counters, per entry point ------------------------------------------------

def _w_mul(tr, st, frame, args, kwargs, res):
    st.work["rows"] += _rows(args[1], args[2])


def _w_reduce(tr, st, frame, args, kwargs, res):
    st.work["rows"] += _rows(args[1])


def _w_power(tr, st, frame, args, kwargs, res):
    st.work["rows"] += len(res)


def _w_dqb(tr, st, frame, args, kwargs, res):
    grp, P, Q = args[0], args[1], args[2]
    params = args[3] if len(args) > 3 else kwargs.get("params")
    if params is None:
        from nillab.nilmetric import DEFAULT_PARAMS
        params = DEFAULT_PARAMS
    pairs = _rows(P, Q)
    st.work["pairs"] += pairs
    st.work["lattice_candidates"] += pairs * _lattice_candidates(grp, P, Q, params)


def _w_dgb(tr, st, frame, args, kwargs, res):
    st.work["rows"] += _rows(args[1], args[2])


def _w_step(tr, st, frame, args, kwargs, res):
    st.work["rows"] += _rows(args[0])


def _w_metric(tr, st, frame, args, kwargs, res):
    rows = _rows(args[0], args[1])
    st.work["pairs"] += rows
    tr.metric_rows += rows


def _w_orbit(tr, st, frame, args, kwargs, res):
    st.work["points"] += len(res)


def _w_grid(tr, st, frame, args, kwargs, res):
    st.work["points"] += len(res)


def _w_net(tr, st, frame, args, kwargs, res):
    st.work["grid_points"] += res["grid_size"]
    st.work["metric_rows"] += tr.metric_rows - frame[1]


def _w_cover(tr, st, frame, args, kwargs, res):
    st.work["cells_considered"] += res["cells_considered"]
    st.work["greedy_picks"] += res["estimate"]


def _w_check(tr, st, frame, args, kwargs, res):
    route = _route(res)
    tr.stats["independence.route.%s" % route].calls += 1
    if res.realized_patterns < 0:
        st.work["counting_refuted"] += 1
    elif route in ("arcs", "sampled"):
        # these routes loop over every pattern
        st.work["patterns_enumerated"] += res.patterns_checked
    elif route == "partition":
        # one coded midpoint per realized pattern
        st.work["patterns_enumerated"] += res.realized_patterns


def _w_scan(tr, st, frame, args, kwargs, res):
    st.work["tuples"] += res[1]["scanned"]


def _w_pool(tr, st, frame, args, kwargs, res):
    tr.pool_sizes.append(len(res))


def _w_rp(tr, st, frame, args, kwargs, res):
    pools = tr.pool_sizes[-2:]
    if len(pools) == 2:
        st.work["candidate_pairs"] += pools[0] * pools[1]
    tr.pool_sizes.clear()


def _w_cube(tr, st, frame, args, kwargs, res):
    st.work["patterns"] += len(res["patterns"])


def _w_birkhoff(tr, st, frame, args, kwargs, res):
    st.work["steps"] += res.n_grid[-1]


def _w_bytes(tr, st, frame, args, kwargs, res):
    st.work["bytes"] += len(res.encode())


WORK = {
    "nilgroup.mul_block": _w_mul, "nilgroup.reduce_block": _w_reduce,
    "nilgroup.power_sequence": _w_power,
    "nilmetric.dist_quotient_block": _w_dqb, "nilmetric.dist_group_block": _w_dgb,
    "step_block": _w_step, "inverse_step_block": _w_step, "metric_block": _w_metric,
    "orbit_span": _w_orbit,
    "systems.product_grid": _w_grid,
    "complexity.shadowing_net": _w_net, "complexity.cover_complexity": _w_cover,
    "independence.check_independence": _w_check,
    "independence.find_ip_independence": _w_scan,
    "cubes._candidate_pool": _w_pool, "cubes.rp_test": _w_rp,
    "cubes.cube_criterion": _w_cube,
    "averages.birkhoff": _w_birkhoff,
    "reports.write_csv": _w_bytes, "reports.write_json": _w_bytes,
}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(stats, passes):
    """Per-layer metrics per traced pass; rates are work over busy time
    (Birkhoff steps over self time, which excludes its orbit_span children).

    Every name is reported for every workload (zero where the layer is idle),
    so one workload's numbers can be compared with another's.
    """
    out = {}

    def get(name):
        return stats[name] if name in stats else _Stat()

    def entry(name, keys=("calls", "busy_s", "self_s")):
        st = get(name)
        vals = {"calls": (st.calls / passes, "count"),
                "busy_s": (st.busy / passes, "s"),
                "self_s": (st.self_ / passes, "s")}
        for k in keys:
            out["%s.%s" % (name, k)] = vals[k]
        return st

    def rate(name, unit, num, den):
        out[name] = (_ratio(num, den), unit)

    st = entry("nilgroup.mul_block")
    rate("nilgroup.mul_block.rows_per_s", "1/s", st.work["rows"], st.busy)
    st = entry("nilgroup.reduce_block")
    rate("nilgroup.reduce_block.rows_per_s", "1/s", st.work["rows"], st.busy)
    entry("nilgroup.inv_block", ("calls", "self_s"))
    st = entry("nilgroup.power_sequence")
    out["nilgroup.power_sequence.rows"] = (st.work["rows"] / passes, "count")
    entry("nilgroup.load_group", ("calls", "busy_s"))

    st = entry("nilmetric.dist_quotient_block")
    out["nilmetric.dist_quotient_block.pairs"] = (st.work["pairs"] / passes, "count")
    rate("nilmetric.dist_quotient_block.us_per_pair", "us",
         1e6 * st.busy, st.work["pairs"])
    rate("nilmetric.dist_quotient_block.lattice_candidates_per_pair",
         "computed/pair", st.work["lattice_candidates"], st.work["pairs"])
    st = entry("nilmetric.dist_group_block")
    out["nilmetric.dist_group_block.rows"] = (st.work["rows"] / passes, "count")
    entry("nilmetric.orbit_distance_growth", ("calls", "busy_s"))

    for sysname in SYSTEM_NAMES:
        base = "systems.%s" % sysname
        st = get(base + ".step_block")
        rate(base + ".step_block.rows_per_s", "1/s", st.work["rows"], st.busy)
        st = get(base + ".metric_block")
        rate(base + ".metric_block.pairs_per_s", "1/s", st.work["pairs"], st.busy)
        st = get(base + ".orbit_span")
        rate(base + ".orbit_span.points_per_s", "1/s", st.work["points"], st.busy)
    st = entry("systems.product_grid", ("calls",))
    out["systems.product_grid.points"] = (st.work["points"] / passes, "count")
    entry("systems.make_nilsystem", ("calls", "busy_s"))

    st = entry("complexity.shadowing_net")
    out["complexity.shadowing_net.grid_points"] = (st.work["grid_points"] / passes, "count")
    rate("complexity.shadowing_net.metric_rows_per_grid_point", "ratio",
         st.work["metric_rows"], st.work["grid_points"])
    st = entry("complexity.cover_complexity")
    out["complexity.cover_complexity.cells_considered"] = (
        st.work["cells_considered"] / passes, "count")
    out["complexity.cover_complexity.greedy_picks"] = (
        st.work["greedy_picks"] / passes, "count")
    entry("complexity.complexity_curve", ("calls", "self_s"))

    st = entry("independence.find_ip_independence")
    rate("independence.find_ip_independence.tuples_per_s", "1/s",
         st.work["tuples"], st.busy)
    st = entry("independence.check_independence")
    rate("independence.check_independence.counting_refuted_ratio", "ratio",
         st.work["counting_refuted"], st.calls)
    out["independence.check_independence.patterns_enumerated"] = (
        st.work["patterns_enumerated"] / passes, "count")
    for route in ("partition", "arcs", "constraints", "sampled"):
        name = "independence.route.%s.calls" % route
        out[name] = (get("independence.route.%s" % route).calls / passes, "count")
    entry("independence.sturmian_language", ("calls", "busy_s"))

    entry("arcs.cut_midpoints", ("calls", "busy_s"))
    entry("arcs.ArcUnion.intersect", ("calls", "busy_s"))

    st = entry("cubes.rp_test", ("calls", "busy_s", "self_s"))
    out["cubes.rp_test.candidate_pairs"] = (st.work["candidate_pairs"] / passes, "count")
    st = entry("cubes.cube_criterion", ("calls", "busy_s"))
    out["cubes.cube_criterion.patterns"] = (st.work["patterns"] / passes, "count")
    entry("cubes.validate_rp_witness", ("self_s",))

    st = entry("averages.birkhoff")
    rate("averages.birkhoff.steps_per_s", "1/s", st.work["steps"], st.self_)
    entry("furstenberg.coboundary_prefix_residuals", ("calls", "self_s"))

    for sub in ("simulate", "complexity", "ip-search", "rp-test"):
        out["cli.main.%s.self_s" % sub] = (get("cli.main.%s" % sub).self_ / passes, "s")
    out["cli.main.calls"] = (sum(s.calls for k, s in stats.items()
                                 if k.startswith("cli.main.")) / passes, "count")
    for fn in ("write_csv", "write_json"):
        st = get("reports.%s" % fn)
        out["reports.%s.bytes" % fn] = (st.work["bytes"] / passes, "count")
    return out


def all_entry_stats(stats, passes):
    """calls / busy_s / self_s / work counters of every wrapped entry point."""
    table = {}
    for name in sorted(stats):
        st = stats[name]
        row = {"calls": st.calls / passes, "busy_s": st.busy / passes,
               "self_s": st.self_ / passes}
        row.update({k: v / passes for k, v in st.work.items()})
        table[name] = row
    return table
