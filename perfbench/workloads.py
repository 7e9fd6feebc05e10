"""Inputs, set-up and operation lists of the four benchmark workloads.

An operation ("op") is one experiment-level public call of nillab. Each op
comes with a check that returns the op's discrete outputs (r-estimates,
growth classes, verdicts, statuses, scan counts, witnesses, CLI exit codes
and parsed payload fields; never float coordinates or raw CLI bytes) and
raises `CheckFailed` when an invariant that holds for every irrational input
is broken. At seed 0 the discrete outputs are also compared with
`reference_seed0.json`.

Library calls go through module attributes (`cx.shadowing_net`, not a
name imported into this file) so the tracer's replacements see them.

Why these workloads (each one loads some modules and leaves others idle):
  nets      complexity on torus and symbolic systems: greedy shadowing nets,
            cover greedy and torus metric blocks; no quotient metric, no
            independence checks. Grids range from 16 to 6,601 points; the skew
            horizons share one grid, the cover ops build their own.
  quotient  nilmetric on nilsystems: nearly all time is inside
            dist_quotient_block (343 and 2,401 lattice translates per side
            for heisenberg3 and the step-3 filiform4 group).
  ip-scan   independence and arcs: IP generator scans and exact routes; no
            grids and no metric evaluations.
  orbits    long single-point orbits (orbit_span, power_sequence), Birkhoff
            averages, the Furstenberg cocycle and cube searches, with the
            exact orbit oracle feeding orbit_err_max.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import nillab.averages as av
import nillab.cli as cli
import nillab.complexity as cx
import nillab.cubes as cubes
import nillab.furstenberg as fu
import nillab.independence as ind
import nillab.nilgroup as ng
import nillab.nilmetric as nm
import nillab.systems as sy
from nillab.budgets import SearchBudget

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ROOT2_HALF = math.sqrt(2.0) / 2.0


class CheckFailed(AssertionError):
    """An op's output broke an invariant or differs from the reference."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    name: str
    fn: object          # () -> result
    check: object       # result -> JSON-able discrete outputs (raises CheckFailed)


# -- inputs ------------------------------------------------------------------------


def quadratic_irrational(period):
    """alpha = [0; a1, ..., ak, a1, ..., ak, ...], a purely periodic continued fraction.

    beta = 1/alpha = [a1; ..., ak, beta] solves q beta^2 + (q' - p) beta - p' = 0
    with p/q, p'/q' the last two convergents of [a1; ..., ak].
    """
    p_prev, p = 1, period[0]
    q_prev, q = 0, 1
    for a in period[1:]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    disc = (q_prev - p) ** 2 + 4 * q * p_prev
    return 2.0 * q / ((p - q_prev) + math.sqrt(disc))


def make_inputs(seed):
    """Everything the library receives that depends on the seed.

    Seed 0 reproduces the test fixtures (golden ratio, tau = (golden, sqrt(2)/2, 0)).
    Other seeds draw angles from purely periodic continued fractions
    [0; 1, a2, ..., ak, ...] with a_i in {1, 2, 3}: quadratic irrationals in
    (0.5, 0.8) that are badly approximable, so no angle is flagged rational and
    the work per op stays close to the fixture's.
    """
    if seed == 0:
        return {
            "seed": 0, "alpha": GOLDEN, "beta": ROOT2_HALF,
            "x_nil": (0.1, 0.2, 0.3), "x_skew": (0.2, 0.1), "y_skew": (0.2, 0.7),
            "x_rot": 0.1, "y_rot": 0.4, "sim_start": (0.1, 0.2),
            "fu_point": (0.15, 0.35), "arc_centre": 0.35,
            "pair_seed": 1, "growth_seed": 103,
        }
    rng = np.random.default_rng(seed)

    def angle():
        k = int(rng.integers(1, 4))
        return quadratic_irrational([1] + [int(a) for a in rng.integers(1, 4, size=k)])

    def unit(lo=0.05, hi=0.95):
        return float(rng.uniform(lo, hi))

    x_skew = (unit(), unit())
    return {
        "seed": int(seed), "alpha": angle(), "beta": angle(),
        "x_nil": (unit(), unit(), unit()), "x_skew": x_skew,
        # same base point, fibre 0.6 turns away, as in the fixture pair
        "y_skew": (x_skew[0], (x_skew[1] + 0.6) % 1.0),
        # rotation pair kept >= 0.2 apart: RP of an isometry is the diagonal,
        # so rp_test must exhaust at delta 0.05 for every angle
        "x_rot": 0.1, "y_rot": unit(0.3, 0.5), "sim_start": (unit(), unit()),
        "fu_point": (unit(), unit()),
        # both target arcs [c - 0.3, c + 0.3) and [c - 0.05, c + 0.55) stay
        # inside [0, 1), so every seed intersects single arcs
        "arc_centre": unit(0.3, 0.45),
        "pair_seed": int(rng.integers(1, 2 ** 31)),
        "growth_seed": int(rng.integers(1, 2 ** 31)),
    }


# -- shared helpers ------------------------------------------------------------------


def run_cli(argv):
    """nillab.cli.main with its console chatter captured; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def read_csv_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def read_json_report(path):
    with open(path) as fh:
        return json.load(fh)["report"]


def curve_summary(curve):
    return {"r": [int(rec["r"]) for rec in curve.records],
            "grid": [int(rec["grid"]) if rec["grid"] is not None else None
                     for rec in curve.records],
            "class": curve.fit["class"] if curve.fit else None}


def net_summary(net):
    return {"r": int(net["r_estimate"]), "grid": int(net["grid_size"])}


def check_report(rep):
    return {"verified": bool(rep.verified), "exact": bool(rep.exact),
            "method": rep.method, "patterns_checked": int(rep.patterns_checked),
            "realized_patterns": int(rep.realized_patterns)}


def fmt(x):
    return repr(float(x))


# -- nets ------------------------------------------------------------------------------

ROT_NS = [1, 2, 3, 5, 8, 10, 16, 26, 42, 65, 100]
SKEW_NS = [1, 2, 3, 4, 5, 7, 10, 14]
COVER_CENTRES = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]


def setup_nets(inp, tmp):
    alpha = inp["alpha"]
    st = {"rot": sy.make_rotation([alpha]), "skew": sy.make_skew_product(alpha),
          "fsh": sy.make_fullshift(2, L=8)}
    st["rot_budget"] = SearchBudget(seed=0)
    st["rot_grid"] = cx.system_grid(st["rot"], max(ROT_NS), 0.1, st["rot_budget"])
    st["skew_budget"] = SearchBudget(grid_divisor=(16.0, 4.0), seed=0, max_cells=3_000_000)
    st["skew_grid"] = cx.system_grid(st["skew"], max(SKEW_NS), 0.1, st["skew_budget"])
    # radius 0.35 around the four centres: every point is within 0.25 of a
    # centre in the wrap-sup metric, so 0.1 is a true Lebesgue number
    st["cover"] = cx.Cover([cx.Ball(c, 0.35) for c in COVER_CENTRES], lebesgue_delta=0.1)
    st["cover"].validate(st["skew"])
    st["fsh6"] = sy.make_fullshift(2, L=6)
    st["fsh_cover"] = cx.Cover([cx.CylinderUnion((((0,), 0),)),
                                cx.CylinderUnion((((1,), 0),))])
    st["tower"] = sy.make_inverse_limit([st["rot"], st["skew"]], [lambda P: P[..., :1]])
    st["tmp"] = tmp
    return st


def ops_nets(st, inp):
    ops = []
    rot_rs, skew_rs = [], []

    def horizon_op(sysname, n, eps, budget, grid, acc, ns, expect_class):
        sys_ = st[sysname]

        def run():
            return cx.shadowing_net(sys_, n, eps, budget, grid=grid)

        def check(net):
            if n == ns[0]:
                acc.clear()
            acc.append(int(net["r_estimate"]))
            require(acc == sorted(acc), "%s r-estimates not monotone: %s" % (sysname, acc))
            out = net_summary(net)
            if n == ns[-1]:
                curve = cx.ComplexityCurve(epsilon=eps, records=[
                    {"n": k, "r": r, "net_size": r, "grid": len(grid)}
                    for k, r in zip(ns, acc)])
                out["class"] = cx.classify_growth(curve)["class"]
                if expect_class:
                    require(out["class"] == expect_class,
                            "%s growth class %s" % (sysname, out["class"]))
            return out
        return Op("%s.net.n=%d" % (sysname, n), run, check)

    for n in ROT_NS:
        ops.append(horizon_op("rot", n, 0.1, st["rot_budget"], st["rot_grid"],
                              rot_rs, ROT_NS, "bounded"))
    for n in SKEW_NS:
        ops.append(horizon_op("skew", n, 0.1, st["skew_budget"], st["skew_grid"],
                              skew_rs, SKEW_NS, None))

    def fsh_check(curve):
        out = curve_summary(curve)
        require(out["class"] == "exponential", "full shift growth %s" % out["class"])
        return out
    ops.append(Op("fullshift.curve",
                  lambda: cx.complexity_curve(st["fsh"], 0.4, list(range(1, 11)),
                                              SearchBudget(seed=0, max_cells=3_000_000)),
                  fsh_check))

    for n in (2, 4):
        ops.append(Op("skew.cover.n=%d" % n,
                      lambda n=n: cx.cover_complexity(
                          st["skew"], st["cover"], n, SearchBudget(grid_divisor=(4.0, 4.0))),
                      lambda res: {"estimate": int(res["estimate"]),
                                   "cells": int(res["cells_considered"]),
                                   "grid": int(res["grid_size"]),
                                   "bound": int(res["shadowing_bound"])}))

    ops.append(Op("fullshift.cover.n=3",
                  lambda: cx.cover_complexity(st["fsh6"], st["fsh_cover"], 3,
                                              SearchBudget(max_cells=100_000)),
                  lambda res: {"estimate": int(res["estimate"]),
                               "cells": int(res["cells_considered"]),
                               "grid": int(res["grid_size"])}))

    ops.append(Op("tower.curve",
                  lambda: cx.complexity_curve(st["tower"], 0.3, [1, 2, 3, 5, 8],
                                              SearchBudget(grid_divisor=(16.0, 4.0), seed=0),
                                              classify=False),
                  curve_summary))

    curve_csv = os.path.join(st["tmp"], "curve.csv")
    fit_json = os.path.join(st["tmp"], "fit.json")
    argv = ["complexity", "--system", "rotation:alpha=%s" % fmt(inp["alpha"]),
            "--eps", "0.1", "--n-grid", "1,2,4,8,12,20,32,50",
            "--out", curve_csv, "--out-json", fit_json]

    def cli_check(res):
        code, _ = res
        require(code == 0, "cli complexity exit %d" % code)
        rows = read_csv_rows(curve_csv)
        fit = read_json_report(fit_json)["fit"]
        require(fit["class"] == "bounded", "cli rotation growth %s" % fit["class"])
        return {"exit": code, "r": [int(r["r"]) for r in rows], "class": fit["class"]}
    ops.append(Op("cli.complexity", lambda: run_cli(argv), cli_check))
    return ops


# -- quotient ------------------------------------------------------------------------------

HEIS_NET_NS = (0, 2)
HEIS_BATCHES, HEIS_BATCH_PAIRS = 20, 60
FIL_BATCHES, FIL_BATCH_PAIRS = 7, 4
FILIFORM4 = os.path.join(HERE, "filiform4.json")


def setup_quotient(inp, tmp):
    H = ng.load_group("heisenberg3", validate=True)
    F4 = ng.load_group(FILIFORM4, validate=True)
    tau = [inp["alpha"], inp["beta"], 0.0]
    tau4 = [inp["alpha"], inp["beta"], 0.0, 0.0]
    st = {"H": H, "F4": F4, "tau": tau, "tau4": tau4,
          "nil": sy.make_nilsystem(H, tau),
          # the diameter probe in make_nilsystem is 2,304 quotient distances;
          # with the default box (2,401 translates per side) it alone outlasts
          # a whole pass of this workload, so the filiform4 op searches the
          # radius-1 box (81 per side)
          "nil4_params": nm.MetricParams(gamma_bound=1.0)}
    st["net_budget"] = SearchBudget(grid_divisor=4.0)
    st["net_grid"] = cx.system_grid(st["nil"], max(HEIS_NET_NS), 0.4, st["net_budget"])
    rng = np.random.default_rng(inp["pair_seed"])
    st["heis_pairs"] = [(rng.uniform(0, 1, (HEIS_BATCH_PAIRS, 3)),
                         rng.uniform(0, 1, (HEIS_BATCH_PAIRS, 3)))
                        for _ in range(HEIS_BATCHES)]
    st["fil_pairs"] = [(rng.uniform(0, 1, (FIL_BATCH_PAIRS, 4)),
                        rng.uniform(0, 1, (FIL_BATCH_PAIRS, 4)))
                       for _ in range(FIL_BATCHES)]
    grng = np.random.default_rng(inp["growth_seed"])
    st["growth_pairs"] = []
    for _ in range(3):
        base = grng.uniform(0.05, 0.9, 3)
        st["growth_pairs"].append((nm.quotient_point(H, base),
                                   nm.quotient_point(H, base + np.array([1e-4, 0, 0]))))
    st["targets"] = ind.SetTuple((ind.Ball((0.25, 0.25, 0.25), 0.3),
                                  ind.Ball((0.75, 0.75, 0.75), 0.3)))
    return st


def ops_quotient(st, inp):
    ops = []

    def nil_check(sys_):
        require(math.isfinite(sys_.diameter) and sys_.diameter > 0, "bad diameter")
        return {"name": sys_.name, "kind": sys_.kind, "flags": list(sys_.flags)}
    ops.append(Op("make_nilsystem.heisenberg3",
                  lambda: sy.make_nilsystem(st["H"], st["tau"]), nil_check))
    ops.append(Op("make_nilsystem.filiform4",
                  lambda: sy.make_nilsystem(st["F4"], st["tau4"], st["nil4_params"]),
                  nil_check))

    heis_rs = []
    for n in HEIS_NET_NS:
        def check(net, n=n):
            if n == HEIS_NET_NS[0]:
                heis_rs.clear()
            heis_rs.append(int(net["r_estimate"]))
            require(heis_rs == sorted(heis_rs), "nilsystem nets not monotone")
            return net_summary(net)
        ops.append(Op("heisenberg.net.n=%d" % n,
                      lambda n=n: cx.shadowing_net(st["nil"], n, 0.4, st["net_budget"],
                                                   grid=st["net_grid"]),
                      check))

    def growth_check(res):
        require(abs(res["base_distance"] - 1e-4) <= 1e-8, "base distance %r"
                % res["base_distance"])
        require(np.all(np.isfinite(res["ratio"])), "non-finite growth ratios")
        return {"steps": len(res["n"]),
                "slope_in_band": bool(0.8 <= res["loglog_slope"] <= 2.2)}
    for i, (x, y) in enumerate(st["growth_pairs"]):
        ops.append(Op("orbit_distance_growth.%d" % i,
                      lambda x=x, y=y: nm.orbit_distance_growth(st["nil"], x, y, 1000),
                      growth_check))

    def dist_check(d):
        require(np.all(np.isfinite(d)) and np.all(d >= 0), "bad quotient distances")
        return {"pairs": int(d.size)}
    for i, (P, Q) in enumerate(st["heis_pairs"]):
        ops.append(Op("dqb.heisenberg3.%d" % i,
                      lambda P=P, Q=Q: nm.dist_quotient_block(st["H"], P, Q), dist_check))
    for i, (P, Q) in enumerate(st["fil_pairs"]):
        ops.append(Op("dqb.filiform4.%d" % i,
                      lambda P=P, Q=Q: nm.dist_quotient_block(st["F4"], P, Q), dist_check))

    def sampled_check(rep):
        require(rep.method == "sampled" and not rep.exact, "route %s" % rep.method)
        return check_report(rep)
    ops.append(Op("check_independence.sampled",
                  lambda: ind.check_independence(st["nil"], st["targets"], [0, 1, 3],
                                                 SearchBudget(max_candidates=100, seed=0)),
                  sampled_check))
    return ops


# -- ip-scan -----------------------------------------------------------------------------

IP_SCANS = ((1, 50), (2, 50), (3, 20), (4, 15))
ARC_FS = ((1, 2), (1, 3, 5), (2, 3, 7), (1, 4, 6), (2, 5, 9), (3, 4, 8), (1, 5, 7),
          (2, 6, 11), (3, 5, 10), (1, 6, 8), (4, 5, 9))


def setup_ip_scan(inp, tmp):
    alpha = inp["alpha"]
    c = inp["arc_centre"]
    st = {"stu": sy.make_sturmian(alpha, L=16), "fsh": sy.make_fullshift(2, L=8),
          "rot": sy.make_rotation([alpha]),
          "binary": ind.SetTuple((ind.Cylinder((0,), 0), ind.Cylinder((1,), 0))),
          # two overlapping arcs: not a partition, so the arcs route
          "overlap": ind.SetTuple((ind.Ball((c,), 0.3), ind.Ball((c + 0.25,), 0.3))),
          "ladder_F": [(0,) + ind.fs_set([2 ** i for i in range(m)]).elements
                       for m in range(1, 9)],
          "arc_F": [(0,) + ind.fs_set(g).elements for g in ARC_FS],
          "tmp": tmp}
    return st


def ip_cli_argv(alpha, out, threads=None):
    argv = ["ip-search", "--system", "sturmian:alpha=%s" % fmt(alpha),
            "--targets", "cyl:0@0 cyl:1@0", "--m", "2", "--bound", "15",
            "--ladder", "--seed", "7", "--out", out]
    return (["--threads", str(threads)] + argv) if threads else argv


def ops_ip_scan(st, inp):
    ops = []
    for m, B in IP_SCANS:
        def check(res, m=m, B=B):
            ip, rep = res
            if m >= 2:
                # 2^(m+1) patterns exceed the coding cells: refuted for every alpha
                require(rep["status"] == "exhausted", "m=%d status %s" % (m, rep["status"]))
                require(rep["scanned"] == math.comb(B + m - 1, m), "scanned %d"
                        % rep["scanned"])
            return {"status": rep["status"], "scanned": int(rep["scanned"]),
                    "generators": list(ip.generators) if ip is not None else None}
        ops.append(Op("sturmian.ip.m=%d.B=%d" % (m, B),
                      lambda m=m, B=B: ind.find_ip_independence(st["stu"], st["binary"], m, B),
                      check))

    def ladder_check(rep):
        require(rep.verified and rep.exact, "full-shift ladder not verified/exact")
        return check_report(rep)
    for m, F in enumerate(st["ladder_F"], start=1):
        ops.append(Op("fullshift.ladder.m=%d" % m,
                      lambda F=F: ind.check_independence(st["fsh"], st["binary"], F),
                      ladder_check))

    def arcs_check(rep):
        require(rep.exact and rep.note.startswith("arc-intersection"),
                "overlapping arcs took route %r" % rep.note)
        return check_report(rep)
    for i, F in enumerate(st["arc_F"]):
        ops.append(Op("rotation.arcs.%d" % i,
                      lambda F=F: ind.check_independence(st["rot"], st["overlap"], F),
                      arcs_check))

    def lang_check(langs):
        sizes = [len(L) for L in langs]
        require(sizes == [n + 1 for n in range(1, 31)], "Sturmian complexity != n+1")
        return {"sizes": sizes}
    ops.append(Op("sturmian_language",
                  lambda: [ind.sturmian_language(inp["alpha"], n) for n in range(1, 31)],
                  lang_check))

    ladder_csv = os.path.join(st["tmp"], "ladder.csv")

    def cli_check(res):
        code, _ = res
        require(code == 0, "cli ip-search exit %d" % code)
        rows = read_csv_rows(ladder_csv)
        require([r["status"] for r in rows][1:] == ["exhausted"], "m=2 not exhausted")
        return {"exit": code, "rows": [[r["m"], r["status"], r["witness_generators"],
                                        r["scanned"]] for r in rows]}
    ops.append(Op("cli.ip-search",
                  lambda: run_cli(ip_cli_argv(inp["alpha"], ladder_csv)), cli_check))
    return ops


def threads_probe(inp, tmp):
    """The documented `--threads 2 ip-search` form; returns its exit code and stderr."""
    return run_cli(ip_cli_argv(inp["alpha"], os.path.join(tmp, "ladder_t2.csv"), threads=2))


# -- orbits -----------------------------------------------------------------------------

BIRKHOFF_N = 10 ** 6
FURSTENBERG_N = 2 ** 18
JUMPS = (10 ** 6, 10 ** 7)
ORBIT_BLOCK_N = 10 ** 6
TELESCOPE_N = 4096


def setup_orbits(inp, tmp):
    H = ng.load_group("heisenberg3", validate=True)
    alpha = inp["alpha"]
    tau = [alpha, inp["beta"], 0.0]
    fsh = sy.make_fullshift(2, L=8)
    fib = [1, 2]
    while len(fib) < 50:
        fib.append(fib[-1] + fib[-2])
    st = {"H": H, "tau": tau, "nil": sy.make_nilsystem(H, tau),
          "skew": sy.make_skew_product(alpha), "rot": sy.make_rotation([alpha]),
          "fsh": fsh, "fu": fu.make_default_furstenberg(K=30),
          "fib_coeffs": [(fib[k - 1], k) for k in range(1, 51)],
          "recipe": fu.liouville_recipe(K=30),
          "x_nil": np.array(inp["x_nil"]), "x_skew": np.array(inp["x_skew"]),
          "y_skew": np.array(inp["y_skew"]),
          "x1": fsh.construct_point([(-8, np.zeros(17, dtype=np.int8))]),
          "x2": fsh.construct_point([(-8, np.ones(17, dtype=np.int8))]),
          "tmp": tmp}
    st["fu_x"] = fu.furstenberg_point(st["fu"], *inp["fu_point"])
    return st


class OrbitErrors:
    """Largest oracle error per orbit-accuracy op, filled by the op checks."""

    def __init__(self):
        self.by_op = {}
        self.raw = {}       # plain |float - exact| without wrap-around, for the baseline rows

    def record(self, name, err):
        self.by_op[name] = max(err, self.by_op.get(name, 0.0))

    def max(self):
        return max(self.by_op.values()) if self.by_op else None


def ops_orbits(st, inp, errors: OrbitErrors):
    ops = []
    nil, skew = st["nil"], st["skew"]

    def birkhoff_op(name, sys_, f, x, n_max):
        def check(tr):
            require(len(tr.averages) == len(tr.n_grid), "trace length")
            # telescoping: N A_N is the running sum of f along the orbit
            orbit = sys_.orbit_block(np.asarray(x), TELESCOPE_N)
            csum = np.cumsum(np.asarray(f(orbit), dtype=float))
            for N, A in zip(tr.n_grid, tr.averages):
                if N > TELESCOPE_N:
                    break
                require(abs(N * A - csum[N - 1]) <= 1e-9 * max(1.0, N),
                        "Birkhoff sums do not telescope at N=%d" % N)
            return {"n_grid": list(tr.n_grid)}
        return Op(name, lambda: av.birkhoff(sys_, f, x, n_max=n_max), check)

    ops.append(birkhoff_op("birkhoff.heisenberg", nil, av.coordinate_cos(2),
                           st["x_nil"], BIRKHOFF_N))
    ops.append(birkhoff_op("birkhoff.skew", skew, av.coordinate_cos(1),
                           st["x_skew"], BIRKHOFF_N))
    ops.append(birkhoff_op("birkhoff.furstenberg", st["fu"], av.coordinate_cos(1),
                           st["fu_x"], FURSTENBERG_N))

    def cob_check(worst):
        require(float(np.max(worst)) <= 1e-10, "coboundary residual %.3g" % np.max(worst))
        return {"prefixes": int(len(worst))}
    ops.append(Op("coboundary.fib50",
                  lambda: fu.coboundary_prefix_residuals(inp["alpha"], st["fib_coeffs"],
                                                         grid=1000), cob_check))
    ops.append(Op("coboundary.recipe",
                  lambda: fu.coboundary_prefix_residuals(*st["recipe"], grid=100), cob_check))

    # orbit accuracy: the exact references are computed once, outside timing
    exact_cache = {}

    def exact(key, fn):
        if key not in exact_cache:
            exact_cache[key] = fn()
        return exact_cache[key]

    block_idx = sorted({0, 1} | {int(round(10 ** (k / 4))) for k in range(25)}
                       | {ORBIT_BLOCK_N - 1})
    block_idx = [i for i in block_idx if i < ORBIT_BLOCK_N]

    def block_check(orbit):
        require(orbit.shape == (ORBIT_BLOCK_N, 3), "orbit shape %s" % (orbit.shape,))
        refs = exact("block", lambda: [oracle.heisenberg_point(st["tau"], st["x_nil"], i)
                                       for i in block_idx])
        errors.record("heisenberg.orbit_block",
                      max(oracle.wrap_error(orbit[i], ref) for i, ref in zip(block_idx, refs)))
        return {"shape": list(orbit.shape)}
    ops.append(Op("heisenberg.orbit_block.1e6",
                  lambda: nil.orbit_block(st["x_nil"], ORBIT_BLOCK_N), block_check))

    for n in JUMPS:
        tag = "1e%d" % round(math.log10(n))

        def heis_check(pts, n=n, tag=tag):
            require(pts.shape == (1, 3), "jump shape")
            ref = exact(("heis", n), lambda: oracle.heisenberg_point(st["tau"], st["x_nil"], n))
            errors.record("heisenberg.jump." + tag, oracle.wrap_error(pts[0], ref))
            errors.raw["heisenberg.jump." + tag] = oracle.raw_error(pts[0], ref)
            return {"shape": list(pts.shape)}
        ops.append(Op("heisenberg.jump." + tag,
                      lambda n=n: nil.orbit_span(st["x_nil"], n, n), heis_check))

        def skew_check(pts, n=n, tag=tag):
            require(pts.shape == (1, 2), "jump shape")
            ref = exact(("skew", n), lambda: oracle.skew_point(inp["alpha"], st["x_skew"], n))
            errors.record("skew.jump." + tag, oracle.wrap_error(pts[0], ref))
            return {"shape": list(pts.shape)}
        ops.append(Op("skew.jump." + tag,
                      lambda n=n: skew.orbit_span(st["x_skew"], n, n), skew_check))

    rp_budget = SearchBudget(max_candidates=1000, n_range=5000, seed=0)

    def rp_rot_check(res):
        # a rotation is an isometry: nothing is regionally proximal off the diagonal
        require(not isinstance(res, cubes.RPWitness), "rotation RP witness found")
        return {"status": res["status"], "pairs": int(res["pairs_checked"])}
    ops.append(Op("rp_test.rotation",
                  lambda: cubes.rp_test(st["rot"], np.array([inp["x_rot"]]),
                                        np.array([inp["y_rot"]]), 1, 0.05, rp_budget),
                  rp_rot_check))

    def rp_skew_check(res):
        if isinstance(res, cubes.RPWitness):
            require(res.achieved_delta < 0.05, "witness above delta")
            return {"found": True, "n": list(res.n)}
        return {"found": False, "status": res["status"]}
    ops.append(Op("rp_test.skew",
                  lambda: cubes.rp_test(skew, st["x_skew"], st["y_skew"], 1, 0.05, rp_budget),
                  rp_skew_check))

    def cube_summary(rep):
        return {"verdict": rep["verdict"], "failures": rep["failures"],
                "n": {k: v["n"] for k, v in sorted(rep["patterns"].items()) if v["realized"]}}

    def cube_fsh_check(rep):
        require(rep["all_realized"] and len(rep["patterns"]) == 16,
                "full-shift cube patterns not all realized")
        return cube_summary(rep)
    ops.append(Op("cube_criterion.fullshift",
                  lambda: cubes.cube_criterion(st["fsh"], st["x1"], st["x2"], 2, 0.05,
                                               SearchBudget(seed=0)),
                  cube_fsh_check))
    ops.append(Op("cube_criterion.skew",
                  lambda: cubes.cube_criterion(skew, st["x_skew"], st["y_skew"], 1, 0.05,
                                               SearchBudget(seed=0)),
                  cube_summary))

    sim_csv = os.path.join(st["tmp"], "sim.csv")
    sim_argv = ["simulate", "--system", "skew:alpha=%s" % fmt(inp["alpha"]),
                "--start", "%s/%s" % tuple(fmt(v) for v in inp["sim_start"]),
                "--steps", "200", "--out", sim_csv]

    def sim_check(res):
        code, _ = res
        require(code == 0, "cli simulate exit %d" % code)
        rows = read_csv_rows(sim_csv)
        require([int(r["n"]) for r in rows] == list(range(200)), "simulate rows")
        return {"exit": code, "rows": len(rows)}
    ops.append(Op("cli.simulate", lambda: run_cli(sim_argv), sim_check))

    rp_json = os.path.join(st["tmp"], "rp.json")
    rp_argv = ["rp-test", "--system", "skew:alpha=%s" % fmt(inp["alpha"]),
               "--x", "%s/%s" % tuple(fmt(v) for v in inp["x_skew"]),
               "--y", "%s/%s" % tuple(fmt(v) for v in inp["y_skew"]),
               "--d", "1", "--delta", "0.05", "--n-range", "2000",
               "--seed", "5", "--out-json", rp_json]

    def rp_cli_check(res):
        code, _ = res
        require(code == 0, "cli rp-test exit %d" % code)
        rep = read_json_report(rp_json)
        return {"exit": code, "found": rep["found"], "n": rep.get("n")}
    ops.append(Op("cli.rp-test", lambda: run_cli(rp_argv), rp_cli_check))
    return ops


WORKLOADS = {
    "nets": (setup_nets, ops_nets),
    "quotient": (setup_quotient, ops_quotient),
    "ip-scan": (setup_ip_scan, ops_ip_scan),
    "orbits": (setup_orbits, ops_orbits),
}
