"""Command-line front end: build systems from descriptors or a config file,
run experiments, emit deterministic CSV/JSON reports.

Exit codes: 0 success; 2 precondition or configuration error; 3 exceeded
enumeration/search budget where the command needs the result; 64 any usage
error (an unknown subcommand or flag, a missing required flag, a badly typed
value). --config goes before the subcommand.

A config file (--config) is an INI document: keys of its [common] section
apply to each subcommand that has the flag, keys of a [<command>] section
(e.g. [simulate]) to that subcommand only. Each key is a flag name without
its dashes (`n_range = 50` stands for `--n-range 50`, `ladder = true` for
`--ladder`). A key's value becomes the flag's default: it fills a required
flag, a flag on the command line overrides it, and [<command>] overrides
[common]. An unknown section or key, or a value that does not convert, is a
configuration error. Identical resolved config + seed gives byte-identical
outputs. Timing never goes into output files, only to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import csv as _csv
import math
import re
import sys
import time

import numpy as np

from . import reports
from .averages import birkhoff, coordinate, coordinate_cos, unique_ergodicity_probe
from .budgets import SearchBudget
from .complexity import complexity_curve
from .cubes import RPWitness, cube_criterion, rp_test
from .furstenberg import make_default_furstenberg, make_furstenberg
from .independence import (Ball, Cylinder, SetTuple, check_independence,
                           empty_target, independence_ladder)
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


class UsageError(Exception):
    """A command-line usage error: main returns 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of printing usage and exiting
        raise UsageError("%s\n%s" % (message, self.format_usage().rstrip()))


def _num(token):
    if token == "golden":
        return GOLDEN
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError("%r is not a finite number" % token)
    return value


def parse_descriptor(text):
    """`name:key=value,key=value` with `/`-separated vectors, `golden` allowed."""
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            if not _:
                raise ConfigError("bad descriptor item %r" % item)
            if k.strip() in params:
                raise ConfigError("descriptor repeats key %r" % k.strip())
            params[k.strip()] = v.strip()
    return name.strip(), params


def _vector(params, key):
    if key not in params:
        raise ConfigError("descriptor needs %s=..." % key)
    return [_num(t) for t in params[key].split("/")]


def _furstenberg(p):
    if ("K" if "coeffs" in p else "alpha") in p:
        raise ConfigError("furstenberg takes alpha=... with coeffs=..., K=... without")
    lam = _num(p.get("lam", "1"))
    if "coeffs" in p:
        return make_furstenberg(_num(p.get("alpha", "golden")),
                                load_coeffs_csv(p["coeffs"]), lam=lam)
    return make_default_furstenberg(K=int(p.get("K", 30)), lam=lam)


# each system constructor's descriptor keys, and its builder from the key values
SYSTEMS = {
    "rotation": (("alpha",), lambda p: make_rotation(_vector(p, "alpha"))),
    "skew": (("alpha",), lambda p: make_skew_product(_num(p.get("alpha", "golden")))),
    "sturmian": (("alpha", "L"), lambda p: make_sturmian(_num(p.get("alpha", "golden")),
                                                         L=int(p.get("L", 16)))),
    "fullshift": (("k", "L", "reserve"), lambda p: make_fullshift(
        int(p.get("k", 2)), L=int(p.get("L", 8)), reserve=int(p.get("reserve", 128)))),
    "nilsystem": (("group", "tau"), lambda p: make_nilsystem(
        load_group(p.get("group", "heisenberg3")), _vector(p, "tau"))),
    "heisenberg": (("a", "b", "c"), lambda p: make_nilsystem(named_group("heisenberg3"), [
        _num(p.get("a", "golden")), _num(p.get("b", "0.7071067811865476")),
        _num(p.get("c", "0"))])),
    "furstenberg": (("alpha", "coeffs", "K", "lam"), _furstenberg),
}


def build_system(descriptor):
    """The system a descriptor names; a key its constructor does not take,
    or a repeated key, is a configuration error."""
    name, p = parse_descriptor(descriptor)
    if name not in SYSTEMS:
        raise ConfigError("unknown system constructor %r" % name)
    keys, build = SYSTEMS[name]
    unknown = sorted(set(p) - set(keys))
    if unknown:
        raise ConfigError("%s takes the keys %s, not %s"
                          % (name, ", ".join(keys), ", ".join(unknown)))
    return build(p)


def load_coeffs_csv(path):
    """Frequency table with columns k, n_k."""
    with open(path) as fh:
        reader = _csv.DictReader(fh)
        missing = sorted({"k", "n_k"} - set(reader.fieldnames or ()))
        if missing:
            raise ConfigError("coefficient table %r lacks the column %s"
                              % (path, ", ".join(missing)))
        return [(int(row["n_k"]), int(row["k"])) for row in reader]


def _point_width(sys):
    """Number of coordinates of the system's points."""
    return sys.sample_block(np.random.default_rng(0), 1).shape[-1]


def parse_point(sys, text, centre=False):
    """Point literal: a symbol word on a handle that builds points from symbol
    runs (`construct_point`), else `/`-separated floats, made into a point by
    the handle's `make_point` or checked against its point width. A ball
    `centre` on a `construct_point` handle is a `/`-separated centre row of
    any reach: Ball.run reads the reach from it."""
    if sys.construct_point is not None and not centre:
        word = np.array([int(c) for c in text], dtype=np.int8)
        point = sys.construct_point([(-(len(word) // 2), word)])
        if point is None:
            raise ConfigError("word %r is no point of this shift: it must fit the "
                              "configured window and use symbols 0..k-1" % text)
        return point
    vals = [_num(t) for t in text.split("/")]
    if sys.make_point is not None:
        return sys.make_point(*vals)
    width = _point_width(sys)
    if len(vals) != width and sys.construct_point is None:
        raise ConfigError("%r has %d coordinates; %s points have %d"
                          % (text, len(vals), sys.name, width))
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
            targets.append(Ball(tuple(parse_point(sys, center, centre=True).tolist()),
                                _num(radius)))
        else:
            raise ConfigError("unknown target kind %r" % kind)
    empty = empty_target(sys, targets)
    if empty is not None:
        raise ConfigError("target %r is empty: it holds a symbol outside the alphabet"
                          % text.split()[empty])
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
    """The header of an output file: the command and each of its `COMMANDS`
    options that is set, by argparse dest, except the output paths. The
    global --config changes no output byte and stays out."""
    dests = [flag.lstrip("-").replace("-", "_") for flag, _ in COMMANDS[args.command][3]
             if flag not in ("--out", "--out-json")]
    cfg = {k: getattr(args, k) for k in ["command"] + dests if getattr(args, k) is not None}
    if extra:
        cfg.update(extra)
    return cfg


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


def cmd_simulate(args, sys_, x):
    orbit = sys_.orbit_block(np.asarray(x), args.steps)
    dim = orbit.shape[1]
    cols = ["n"] + ["c%d" % i for i in range(dim)]
    rows = [dict({"n": i}, **{"c%d" % j: orbit[i, j] for j in range(dim)})
            for i in range(len(orbit))]
    reports.write_csv(args.out, cols, rows, resolved_config(args))
    return 0


def _default_n_grid(n_max):
    grid = sorted({int(round(max(n_max, 1) ** (i / 10.0))) for i in range(11)} | {1, n_max})
    return [n for n in grid if 1 <= n <= n_max]


def cmd_complexity(args, sys_):
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


def _two_points(args, sys_, a, b):
    """Both points, delta (default diameter / 50) and a config with delta_used."""
    x, y = parse_point(sys_, a), parse_point(sys_, b)
    delta = args.delta if args.delta is not None else sys_.diameter / 50.0
    return x, y, delta, resolved_config(args, {"delta_used": delta})


def cmd_rp_test(args, sys_):
    x, y, delta, cfg = _two_points(args, sys_, args.x, args.y)
    res = rp_test(sys_, x, y, args.d, delta, budget_from(args))
    found = isinstance(res, RPWitness)
    payload = dict(res.__dict__ if found else res, found=found)
    reports.write_json(args.out_json, payload, cfg)
    print("rp-test: %s" % ("witness found" if found else "budget exhausted"))
    return 0


def cmd_cube_criterion(args, sys_):
    x1, x2, delta, cfg = _two_points(args, sys_, args.x1, args.x2)
    rep = cube_criterion(sys_, x1, x2, args.d, delta, budget_from(args))
    reports.write_json(args.out_json, rep, cfg)
    print("cube-criterion: %s" % rep["verdict"])
    return 0


def cmd_ind_check(args, sys_):
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


def cmd_ip_search(args, sys_):
    sets = parse_targets(sys_, args.targets)
    m_values = list(range(1, args.m + 1)) if args.ladder else [args.m]
    t0 = time.time()
    rows = independence_ladder(sys_, sets, m_values, [args.bound], budget_from(args))
    print("ip-search: %.2fs" % (time.time() - t0), file=sys.stderr)
    cols = ["m", "B", "status", "witness_generators", "patterns_checked", "scanned"]
    reports.write_csv(args.out, cols, rows, resolved_config(args))
    for row in rows:
        print("m=%d B=%d %s %s" % (row["m"], row["B"], row["status"],
                                   row["witness_generators"]))
    return 0


def cmd_averages(args, sys_, x):
    if not (args.out_json if args.probe else args.out):
        raise ConfigError("averages needs --out-json with --probe, --out without")
    if args.probe and args.start:
        raise ConfigError("averages --probe samples its own --starts; it takes no --start")
    width = _point_width(sys_)
    observables = [_parse_observable(t, width) for t in args.observable.split()]
    if args.probe:
        rng = np.random.default_rng(args.seed)
        starts = [sys_.sample_block(rng, 1)[0] for _ in range(args.starts)]
        if len(observables) == 1:
            observables += [coordinate_cos(0), coordinate(0)]
        rep = unique_ergodicity_probe(sys_, observables, starts, args.n_max)
        payload = {k: rep[k] for k in ("spreads", "max_spread", "verdict", "eta",
                                       "n_max", "note")}
        reports.write_json(args.out_json, payload, resolved_config(args))
        print(rep["verdict"])
        return 0
    if len(observables) != 1:
        raise ConfigError("averages without --probe takes one observable")
    tr = birkhoff(sys_, observables[0], x, n_max=args.n_max)
    rows = [{"N": n, "A_N": a} for n, a in zip(tr.n_grid, tr.averages)]
    reports.write_csv(args.out, ["N", "A_N"],
                      rows, resolved_config(args, {"oscillation": tr.oscillation}))
    print("oscillation (tail N>=%d): %.4g" % (tr.tail_from, tr.oscillation))
    return 0


def _parse_observable(text, width):
    kind, _, idx = text.partition(":")
    if kind not in ("cos", "coord"):
        raise ConfigError("unknown observable %r (use cos:<i> or coord:<i>)" % text)
    i = int(idx or 0)
    if not 0 <= i < width:
        raise ConfigError("observable %r: points have %d coordinates" % (text, width))
    return coordinate_cos(i) if kind == "cos" else coordinate(i)


# -- argument plumbing -----------------------------------------------------------

# subcommand -> (function, help, whether --seed is mandatory, options); an
# option is a flag and its add_argument keywords
REQUIRED = {"required": True}
COMMON = [("--system", {"help": "descriptor like rotation:alpha=golden"}),
          ("--seed", {"type": int}), ("--n-range", {"type": int, "default": 100}),
          ("--candidates", {"type": int, "default": 1000}),
          ("--grid-divisor", {"help": "grid divisor, scalar or a/b per dimension"}),
          ("--max-cells", {"type": int, "default": 2_000_000})]
TWO_POINT = [("--d", {"type": int, "default": 1}), ("--delta", {"type": float}),
             ("--out-json", REQUIRED)]
COMMANDS = {
    "validate-group": (cmd_validate_group, "group-law axiom tests", False, [
        ("--spec", REQUIRED), ("--seed", {"type": int}), ("--out-json", {})]),
    "simulate": (cmd_simulate, "orbit to CSV", False, COMMON + [
        ("--start", {}), ("--steps", {"type": int, "default": 100}), ("--out", REQUIRED)]),
    "complexity": (cmd_complexity, "shadowing-net curve and growth fit", False, COMMON + [
        ("--eps", {"type": float, "required": True}),
        ("--n-max", {"type": int, "default": 100}), ("--n-grid", {}),
        ("--out", {}), ("--out-json", {})]),
    "rp-test": (cmd_rp_test, "regional-proximality witness search", True, COMMON + [
        ("--x", REQUIRED), ("--y", REQUIRED)] + TWO_POINT),
    "cube-criterion": (cmd_cube_criterion, "two-point cube pattern report", True, COMMON + [
        ("--x1", REQUIRED), ("--x2", REQUIRED)] + TWO_POINT),
    "ind-check": (cmd_ind_check, "independence of a time set", True, COMMON + [
        ("--targets", REQUIRED), ("--F", REQUIRED), ("--out-json", REQUIRED)]),
    "ip-search": (cmd_ip_search, "finite-IP independence generator scan", True, COMMON + [
        ("--targets", {"default": "cyl:0@0 cyl:1@0",
                       "help": "default: the two one-symbol cylinders"}),
        ("--m", {"type": int, "required": True}), ("--bound", {"type": int, "required": True}),
        ("--ladder", {"action": "store_true",
                      "help": "scan every m' <= m instead of m alone"}),
        ("--out", REQUIRED)]),
    "averages": (cmd_averages, "Birkhoff averages / ergodicity probe", False, COMMON + [
        ("--observable", {"default": "cos:0"}), ("--start", {}),
        ("--n-max", {"type": int, "default": 100000}), ("--probe", {"action": "store_true"}),
        ("--starts", {"type": int, "default": 3}), ("--out", {}), ("--out-json", {})]),
}


def _key(name):
    """Config key of a flag or an INI key: `--n-range` -> `n_range`."""
    return name.lstrip("-").replace("-", "_").lower()


def config_defaults(path, command):
    """Defaults of `command`'s options from the INI file at `path`, by key."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        if not cp.read(path):
            raise ConfigError("cannot read config file %r" % path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    options = {name: {_key(flag): kw for flag, kw in opts}
               for name, (_, _, _, opts) in COMMANDS.items()}
    options["common"] = {k: kw for opts in options.values() for k, kw in opts.items()}
    common, own = {}, {}
    for name in cp.sections():
        if name not in options:
            raise ConfigError("unknown config section [%s]" % name)
        for key in cp[name]:
            if _key(key) not in options[name]:
                raise ConfigError("[%s] %s: no such flag" % (name, key))
            kw = options[command].get(_key(key))
            if name not in ("common", command) or kw is None:
                continue
            try:
                if kw.get("action") == "store_true":
                    value = cp[name].getboolean(key)
                else:
                    value = kw.get("type", str)(cp[name][key])
            except ValueError as exc:
                raise ConfigError("[%s] %s: %s" % (name, key, exc)) from None
            (common if name == "common" else own)[_key(key)] = value
    return {**common, **own}  # [<command>] keys override [common] ones


def _global_options():
    """Parser of the options that precede the subcommand."""
    ap = _Parser(prog="nillab", add_help=False)
    ap.add_argument("--config", help="INI config file; flags override its keys")
    return ap


def build_parser(defaults, command=None):
    """The parser; config `defaults` (by key) replace flag defaults and requirements.
    Only `command`, if given, gets its options; the usage still lists every name."""
    ap = _Parser(prog="nillab", description=__doc__, parents=[_global_options()],
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command")
    for name, (_, help_, _, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        # argparse takes a token that starts with '-' for an option unless it is a plain
        # negative number; any such token naming no option is a value, as in `--start=-0.1`
        sp._negative_number_matcher = re.compile(r"^-[^-]")
        if command not in (None, name):
            continue
        for flag, kw in options:
            if _key(flag) in defaults:
                kw = dict(kw, default=defaults[_key(flag)], required=False)
            sp.add_argument(flag, **kw)
    return ap


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # --config and the subcommand first: config values become parser defaults
        head = _global_options()
        head.add_argument("command", nargs="?")
        head.add_argument("rest", nargs=argparse.REMAINDER)
        pre, unknown = head.parse_known_args(argv)
        # a known subcommand is the one the full parse takes: only it needs options
        known = pre.command if pre.command in COMMANDS else None
        ap = build_parser(config_defaults(pre.config, known)
                          if pre.config is not None and known else {}, known)
        # an unknown option before the subcommand would pass its value off as the subcommand
        unknown = [a for a in unknown if a not in ("-h", "--help")]
        if unknown:
            ap.error("unrecognized arguments: %s" % " ".join(unknown))
        args = ap.parse_args(argv)
        if args.command is None:
            ap.error("missing subcommand")
        fn, _, needs_seed, _ = COMMANDS[args.command]
        if needs_seed and args.seed is None:
            raise ConfigError("--seed is mandatory for search commands")
        if args.seed is None:
            args.seed = 0
        inputs = []
        if "system" in args:
            if args.system is None:
                raise ConfigError("%s needs --system, as a flag or a config key"
                                  % args.command)
            inputs.append(build_system(args.system))
        if "start" in args:
            inputs.append(parse_point(inputs[0], args.start) if args.start else
                          inputs[0].sample_block(np.random.default_rng(args.seed), 1)[0])
        return fn(args, *inputs)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return USAGE_EXIT
    except (BudgetError, GridError) as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return BUDGET_EXIT
    except (ValueError, OSError) as exc:     # OSError: a file that cannot be read or written
        print("config error: %s" % exc, file=sys.stderr)
        return CONFIG_EXIT


if __name__ == "__main__":
    sys.exit(main())
