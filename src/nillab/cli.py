"""Command-line front end: build systems from descriptors or a config file,
run experiments, emit deterministic CSV/JSON reports.

Exit codes: 0 success; 2 precondition or configuration error; 3 exceeded
enumeration/search budget where the command needs the result; 64 usage.

A config file (--config) is an INI document: keys of its [common] section
apply to every subcommand, keys of a [<command>] section (e.g. [simulate])
to that subcommand only. Each key is a flag name without its dashes
(`n_range = 50` stands for `--n-range 50`); flags given on the command line
override config keys. Identical resolved config + seed gives byte-identical
outputs. Timing never goes into output files, only to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import csv as _csv
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import reports
from .averages import birkhoff, coordinate, coordinate_cos, unique_ergodicity_probe
from .budgets import SearchBudget
from .complexity import complexity_curve
from .cubes import RPWitness, cube_criterion, rp_test
from .furstenberg import make_default_furstenberg, make_furstenberg
from .independence import (Ball, Cylinder, SetTuple, check_independence,
                           independence_ladder)
from .nilgroup import load_group, named_group, validate_group
from .nilmetric import BudgetError
from .systems import (GridError, make_fullshift, make_nilsystem, make_rotation,
                      make_skew_product, make_sturmian)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

USAGE_EXIT = 64
CONFIG_EXIT = 2
BUDGET_EXIT = 3


class ConfigError(ValueError):
    pass


def _num(token):
    if token == "golden":
        return GOLDEN
    return float(token)


def parse_descriptor(text):
    """`name:key=value,key=value` with `/`-separated vectors, `golden` allowed."""
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            if not _:
                raise ConfigError("bad descriptor item %r" % item)
            params[k.strip()] = v.strip()
    return name.strip(), params


def _vector(params, key):
    if key not in params:
        raise ConfigError("descriptor needs %s=..." % key)
    return [_num(t) for t in params[key].split("/")]


def build_system(descriptor):
    name, p = parse_descriptor(descriptor)
    if name == "rotation":
        return make_rotation(_vector(p, "alpha"))
    if name == "skew":
        return make_skew_product(_num(p.get("alpha", "golden")))
    if name == "sturmian":
        return make_sturmian(_num(p.get("alpha", "golden")), L=int(p.get("L", 16)))
    if name == "fullshift":
        return make_fullshift(int(p.get("k", 2)), L=int(p.get("L", 8)),
                              reserve=int(p.get("reserve", 128)))
    if name == "nilsystem":
        group = load_group(p.get("group", "heisenberg3"))
        tau = _vector(p, "tau")
        return make_nilsystem(group, tau)
    if name == "heisenberg":
        group = named_group("heisenberg3")
        tau = [_num(p.get("a", "golden")), _num(p.get("b", "0.7071067811865476")),
               _num(p.get("c", "0"))]
        return make_nilsystem(group, tau)
    if name == "furstenberg":
        lam = _num(p.get("lam", "1"))
        if "coeffs" in p:
            coeffs = load_coeffs_csv(p["coeffs"])
            return make_furstenberg(_num(p.get("alpha", "golden")), coeffs, lam=lam)
        return make_default_furstenberg(K=int(p.get("K", 30)), lam=lam)
    raise ConfigError("unknown system constructor %r" % name)


def load_coeffs_csv(path):
    """Frequency table with columns k, n_k."""
    coeffs = []
    with open(path) as fh:
        for row in _csv.DictReader(fh):
            coeffs.append((int(row["n_k"]), int(row["k"])))
    return coeffs


def parse_point(sys, text):
    """Point literal: `/`-separated floats, or a symbol word for full shifts."""
    if sys.name == "fullshift":
        word = np.array([int(c) for c in text], dtype=np.int8)
        point = sys.construct_point([(-(len(word) // 2), word)])
        if point is None:
            raise ConfigError("word does not fit the configured window")
        return point
    vals = [_num(t) for t in text.split("/")]
    if sys.name == "furstenberg":
        if len(vals) != 2:
            raise ConfigError("furstenberg points are theta1/theta2")
        return sys.make_point(vals[0], vals[1])
    return np.asarray(vals, dtype=float)


def parse_targets(sys, text):
    """Targets like `cyl:01@-1` (word at anchor) or `ball:0.2/0.1@0.05`
    (center @ radius), separated by spaces."""
    targets = []
    for item in text.split():
        kind, _, rest = item.partition(":")
        if kind == "cyl":
            word, _, anchor = rest.partition("@")
            targets.append(Cylinder(tuple(int(c) for c in word),
                                    int(anchor) if anchor else 0))
        elif kind == "ball":
            center, _, radius = rest.partition("@")
            targets.append(Ball(tuple(_num(t) for t in center.split("/")),
                                _num(radius)))
        else:
            raise ConfigError("unknown target kind %r" % kind)
    return SetTuple(tuple(targets))


def budget_from(args):
    div = args.grid_divisor
    if div is not None and "/" in str(div):
        div = tuple(float(t) for t in str(div).split("/"))
    elif div is not None:
        div = float(div)
    return SearchBudget(grid_divisor=8.0 if div is None else div,
                        max_candidates=args.candidates, n_range=args.n_range,
                        seed=args.seed, max_cells=args.max_cells)


def resolved_config(args, extra=None):
    keys = ("command system seed threads eps n_max d delta m bound targets "
            "F start steps observable n_range candidates grid_divisor "
            "max_cells spec x y x1 x2").split()
    cfg = {k: getattr(args, k) for k in keys
           if getattr(args, k, None) is not None}
    if extra:
        cfg.update(extra)
    return cfg


def _parallel_map(fn, items, threads):
    if threads <= 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# -- subcommand implementations -------------------------------------------------


def cmd_validate_group(args):
    group = load_group(args.spec, validate=False)
    report = validate_group(group, seed=args.seed)
    for name, err in report["errors"].items():
        print("%-22s max error %.3g" % (name, err))
    print("group %r dim=%d step=%d: %s" % (group.name, group.dim, group.step,
                                           "ok" if report["ok"] else "FAILED"))
    if args.out_json:
        reports.write_json(args.out_json, report, resolved_config(args))
    return 0 if report["ok"] else CONFIG_EXIT


def cmd_simulate(args):
    sys_ = build_system(args.system)
    x = parse_point(sys_, args.start) if args.start else sys_.sample(
        np.random.default_rng(args.seed))[0]
    orbit = sys_.orbit_block(np.asarray(x), args.steps)
    dim = orbit.shape[1]
    cols = ["n"] + ["c%d" % i for i in range(dim)]
    rows = [dict({"n": i}, **{"c%d" % j: orbit[i, j] for j in range(dim)})
            for i in range(len(orbit))]
    reports.write_csv(args.out, cols, rows, resolved_config(args))
    return 0


def _default_n_grid(n_max):
    grid = sorted({int(round(n_max ** (i / 10.0))) for i in range(11)} | {1, n_max})
    return [n for n in grid if 1 <= n <= n_max]


def cmd_complexity(args):
    sys_ = build_system(args.system)
    n_values = ([int(t) for t in args.n_grid.split(",")] if args.n_grid
                else _default_n_grid(args.n_max))
    curve = complexity_curve(sys_, args.eps, n_values, budget_from(args))
    cols = ["n", "r", "net_size", "grid", "epsilon"]
    rows = [dict(rec, epsilon=args.eps) for rec in curve.records]
    cfg = resolved_config(args)
    if args.out:
        reports.write_csv(args.out, cols, rows, cfg)
    if args.out_json:
        reports.write_json(args.out_json, {"fit": curve.fit,
                                           "records": curve.records}, cfg)
    if curve.fit:
        print("growth class: %s" % curve.fit["class"])
    return 0


def cmd_rp_test(args):
    sys_ = build_system(args.system)
    x = parse_point(sys_, args.x)
    y = parse_point(sys_, args.y)
    delta = args.delta if args.delta is not None else sys_.diameter / 50.0
    res = rp_test(sys_, x, y, args.d, delta, budget_from(args))
    payload = (res.__dict__ if isinstance(res, RPWitness) else res)
    found = isinstance(res, RPWitness)
    payload = dict(payload, found=found)
    reports.write_json(args.out_json, payload,
                       resolved_config(args, {"delta_used": delta}))
    print("rp-test: %s" % ("witness found" if found else "budget exhausted"))
    return 0


def cmd_cube_criterion(args):
    sys_ = build_system(args.system)
    x1 = parse_point(sys_, args.x1)
    x2 = parse_point(sys_, args.x2)
    delta = args.delta if args.delta is not None else sys_.diameter / 50.0
    rep = cube_criterion(sys_, x1, x2, args.d, delta, budget_from(args))
    reports.write_json(args.out_json, rep,
                       resolved_config(args, {"delta_used": delta}))
    print("cube-criterion: %s" % rep["verdict"])
    return 0


def cmd_ind_check(args):
    sys_ = build_system(args.system)
    sets = parse_targets(sys_, args.targets)
    F = [int(t) for t in args.F.split(",")]
    rep = check_independence(sys_, sets, F, budget_from(args))
    payload = {"F": rep.F, "verified": rep.verified, "method": rep.method,
               "exact": rep.exact, "patterns_checked": rep.patterns_checked,
               "realized_patterns": rep.realized_patterns,
               "failures": [str(f) for f in rep.failures[:64]], "note": rep.note}
    reports.write_json(args.out_json, payload, resolved_config(args))
    print("ind-check: verified=%s (%s)" % (rep.verified, rep.method))
    return 0


def cmd_ip_search(args):
    sys_ = build_system(args.system)
    sets = parse_targets(sys_, args.targets)
    m_values = list(range(1, args.m + 1)) if args.ladder else [args.m]
    budget = budget_from(args)
    t0 = time.time()
    rows = _parallel_map(
        lambda m: independence_ladder(sys_, sets, [m], [args.bound], budget)[0],
        m_values, args.threads)
    print("ip-search: %.2fs" % (time.time() - t0), file=sys.stderr)
    cols = ["m", "B", "status", "witness_generators", "patterns_checked", "scanned"]
    reports.write_csv(args.out, cols, rows, resolved_config(args))
    for row in rows:
        print("m=%d B=%d %s %s" % (row["m"], row["B"], row["status"],
                                   row["witness_generators"]))
    return 0


def cmd_averages(args):
    sys_ = build_system(args.system)
    obs = _parse_observable(args.observable)
    if args.probe:
        rng = np.random.default_rng(args.seed)
        starts = [sys_.sample(rng)[0] for _ in range(args.starts)]
        observables = [_parse_observable(t) for t in args.observable.split()] \
            if " " in args.observable else [obs, coordinate_cos(0), coordinate(0)]
        rep = unique_ergodicity_probe(sys_, observables, starts, args.n_max)
        payload = {"spreads": rep["spreads"], "max_spread": rep["max_spread"],
                   "verdict": rep["verdict"], "eta": rep["eta"],
                   "n_max": rep["n_max"], "note": rep["note"]}
        reports.write_json(args.out_json, payload, resolved_config(args))
        print(rep["verdict"])
        return 0
    x = parse_point(sys_, args.start) if args.start else sys_.sample(
        np.random.default_rng(args.seed))[0]
    tr = birkhoff(sys_, obs, x, n_max=args.n_max,
                  observable_id=getattr(obs, "observable_id", "f"))
    rows = [{"N": n, "A_N": a} for n, a in zip(tr.n_grid, tr.averages)]
    reports.write_csv(args.out, ["N", "A_N"],
                      rows, resolved_config(args, {"oscillation": tr.oscillation}))
    print("oscillation (tail N>=%d): %.4g" % (tr.tail_from, tr.oscillation))
    return 0


def _parse_observable(text):
    kind, _, idx = text.partition(":")
    if kind == "cos":
        return coordinate_cos(int(idx or 0))
    if kind == "coord":
        return coordinate(int(idx or 0))
    raise ConfigError("unknown observable %r (use cos:<i> or coord:<i>)" % text)


# -- argument plumbing -----------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--system", required=False,
                    help="descriptor like rotation:alpha=golden")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--n-range", dest="n_range", type=int, default=100)
    sp.add_argument("--candidates", type=int, default=1000)
    sp.add_argument("--grid-divisor", dest="grid_divisor", default=None,
                    help="grid divisor, scalar or a/b per dimension")
    sp.add_argument("--max-cells", dest="max_cells", type=int, default=2_000_000)


def _global_options():
    """Parser of the options that precede the subcommand."""
    ap = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    ap.add_argument("--config", help="INI config file; flags override its keys")
    ap.add_argument("--threads", type=int,
                    default=int(os.environ.get("NILLAB_THREADS", "1")))
    return ap


def build_parser():
    # usage errors in the global options and the subcommand name raise
    # argparse.ArgumentError instead of exiting
    ap = argparse.ArgumentParser(prog="nillab", description=__doc__,
                                 parents=[_global_options()], exit_on_error=False,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("validate-group", help="group-law axiom tests")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out-json", dest="out_json")
    sp.set_defaults(fn=cmd_validate_group, needs_seed=False)

    sp = sub.add_parser("simulate", help="orbit to CSV")
    _add_common(sp)
    sp.add_argument("--start")
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_simulate, needs_seed=False)

    sp = sub.add_parser("complexity", help="shadowing-net curve and growth fit")
    _add_common(sp)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--n-max", dest="n_max", type=int, default=100)
    sp.add_argument("--n-grid", dest="n_grid")
    sp.add_argument("--out")
    sp.add_argument("--out-json", dest="out_json")
    sp.set_defaults(fn=cmd_complexity, needs_seed=False)

    sp = sub.add_parser("rp-test", help="regional-proximality witness search")
    _add_common(sp)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--out-json", dest="out_json", required=True)
    sp.set_defaults(fn=cmd_rp_test, needs_seed=True)

    sp = sub.add_parser("cube-criterion", help="two-point cube pattern report")
    _add_common(sp)
    sp.add_argument("--x1", required=True)
    sp.add_argument("--x2", required=True)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--out-json", dest="out_json", required=True)
    sp.set_defaults(fn=cmd_cube_criterion, needs_seed=True)

    sp = sub.add_parser("ind-check", help="independence of a time set")
    _add_common(sp)
    sp.add_argument("--targets", required=True)
    sp.add_argument("--F", required=True)
    sp.add_argument("--out-json", dest="out_json", required=True)
    sp.set_defaults(fn=cmd_ind_check, needs_seed=True)

    sp = sub.add_parser("ip-search", help="finite-IP independence generator scan")
    _add_common(sp)
    sp.add_argument("--targets", default="cyl:0@0 cyl:1@0",
                    help="default: the two one-symbol cylinders")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--ladder", action="store_true",
                    help="scan every m' <= m instead of m alone")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_ip_search, needs_seed=True)

    sp = sub.add_parser("averages", help="Birkhoff averages / ergodicity probe")
    _add_common(sp)
    sp.add_argument("--observable", default="cos:0")
    sp.add_argument("--start")
    sp.add_argument("--n-max", dest="n_max", type=int, default=100000)
    sp.add_argument("--probe", action="store_true")
    sp.add_argument("--starts", type=int, default=3)
    sp.add_argument("--out")
    sp.add_argument("--out-json", dest="out_json")
    sp.set_defaults(fn=cmd_averages, needs_seed=False)

    return ap


def apply_config_file(argv):
    """Pull defaults from the INI file; explicit flags still win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ConfigError("--config needs a path")
    path = argv[i + 1]
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigError("cannot read config file %r" % path)
    rest = argv[:i] + argv[i + 2:]
    # the subcommand is the first positional after the global options
    pre = _global_options()
    pre.add_argument("command", nargs="?")
    command = pre.parse_known_args(rest)[0].command
    injected = []
    for section in ("common", command or ""):
        if section and cp.has_section(section):
            for k, v in cp.items(section):
                flag = "--" + k.replace("_", "-")
                if flag not in rest:
                    injected.extend([flag, v])
    if command is None:
        return rest + injected
    at = rest.index(command)
    # defaults go right after the subcommand so explicit flags parse later
    return rest[:at + 1] + injected + rest[at + 1:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(apply_config_file(argv))
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return CONFIG_EXIT
    except argparse.ArgumentError as exc:
        args, problem = None, str(exc)
    else:
        problem = "missing subcommand"
    if args is None or args.command is None:
        print("usage error: %s" % problem, file=sys.stderr)
        ap.print_usage(sys.stderr)
        return USAGE_EXIT
    if getattr(args, "needs_seed", False) and args.seed is None:
        print("config error: --seed is mandatory for search commands",
              file=sys.stderr)
        return CONFIG_EXIT
    if args.seed is None:
        args.seed = 0
    try:
        return args.fn(args)
    except (BudgetError, GridError) as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return BUDGET_EXIT
    except (ConfigError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return CONFIG_EXIT


if __name__ == "__main__":
    sys.exit(main())
