"""Command-line front end: JSON reports, fixtures, and the degeneration
experiment.

Every report embeds its run manifest (command, input, config, version,
and the seed of a command that draws random numbers); reruns with
identical manifests are byte-identical, so wall times go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import random
import sys
import time

from . import (__version__, bounds, freetree, halfplane, isometry, pingpong,
               tits)
from .errors import (BudgetError, HypcertError, InputError, SearchExhausted)


def _round12(obj):
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return repr(obj)
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, freetree.TreeEnd):
        return {"prefix": obj.prefix, "period": obj.period}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"no report form for {type(obj).__name__}")


def emit(report, args):
    _write(json.dumps(_round12(report), indent=2) + "\n", args)


def _write(text, args):
    """Text to the --output file, or to stdout without one."""
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# parsed names that are not flags of the run's config
_NOT_CONFIG = ("command", "fn", "input", "output", "seed")


def manifest(args):
    """The run manifest; its config is every parsed flag but the input,
    output and seed, in the order the parser declares them."""
    out = {"command": args.command, "input": getattr(args, "input", None),
           "config": {k: v for k, v in vars(args).items()
                      if k not in _NOT_CONFIG}}
    if "seed" in args:
        out["seed"] = args.seed
    out["version"] = __version__
    return out


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such input file: {path}")
    except ValueError as e:   # an integer past Python's digit limit too
        raise InputError(f"malformed JSON in {path}: {e}")


def load_space(path) -> sampled.SampledSpace:
    from . import sampled
    return sampled.SampledSpace.from_json(load_json(path))


def _moebius(m):
    """The Moebius map of a 2x2 matrix given as JSON rows of numbers;
    integer entries reach it as they are, so its determinant is exact."""
    if not (isinstance(m, list) and len(m) == 2
            and all(_numbers(row, 2) for row in m)):
        raise InputError(f"not a 2x2 matrix of numbers: {m!r}")
    (a, b), (c, d) = m
    try:
        return halfplane.Moebius(a, b, c, d)
    except OverflowError:
        raise InputError(f"matrix {m!r} has an integer beyond the float "
                         "range") from None


def load_group_spec(path):
    """Parse {"model": ..., "params": ..., "generators": [...]} input."""
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise InputError("a group spec is a JSON object")
    model = obj.get("model")
    params = obj.get("params", {})
    gens_spec = obj.get("generators", [])
    if not isinstance(params, dict):
        raise InputError("params must be an object")
    if not (isinstance(gens_spec, list)
            and all(isinstance(g, dict) for g in gens_spec)):
        raise InputError("generators must be a list of objects")
    names = [g.get("name", f"g{k}") for k, g in enumerate(gens_spec)]
    if any(isinstance(name, (list, dict)) for name in names):
        raise InputError(f"names must be strings or numbers: {names}")
    if len(set(names)) != len(names):
        raise InputError(f"duplicate generator names in {names}")
    gens = []
    if model == "h2":
        space = halfplane.H2
        for k, g in enumerate(gens_spec):
            m = g.get("matrix")
            if m is None:
                raise InputError("h2 generators need a matrix")
            gens.append((names[k], _moebius(m)))
    elif model == "free_tree":
        rank = params.get("rank", 2)
        if type(rank) is not int:
            raise InputError(f"rank must be an integer, got {rank!r}")
        space = freetree.FreeTreeSpace(rank)
        for k, g in enumerate(gens_spec):
            if not isinstance(g.get("word"), str):
                raise InputError("free_tree generators need a word string")
            gens.append((names[k],
                         space.check_point(freetree.parse_word(g["word"]))))
    else:
        raise InputError(f"unknown model {model!r}")
    return space, gens


def resolve_seed(args):
    """HYPCERT_SEED in place of --seed, in a command that takes one."""
    env = os.environ.get("HYPCERT_SEED")
    if env is not None and "seed" in args:
        try:
            args.seed = int(env)
        except ValueError:
            raise InputError(f"HYPCERT_SEED must be an integer, got {env!r}")


# ---------------------------------------------------------------- commands


def cmd_delta(args):
    from . import sampled
    space = load_space(args.input)
    est = sampled.four_point_delta(space, mode=args.mode,
                                   n_quadruples=args.quadruples,
                                   seed=args.seed)
    emit({"manifest": manifest(args), "result": vars(est)}, args)
    return 0


def cmd_pack(args):
    from . import sampled
    space = load_space(args.input)
    center = _parse_point_id(space, args.center)
    # the bound refuses bad flags before the search runs
    bound = (None if args.P0 is None else
             bounds.packing_bound(args.P0, args.r0, args.R, args.r))
    prof = sampled.packing_number(space, center, args.R, args.r,
                                  mode=args.mode)
    emit({"manifest": manifest(args),
          "result": {"pack_exact": prof.pack_exact,
                     "pack_greedy": prof.pack_greedy,
                     "cov_greedy": prof.cov_greedy,
                     "witness": list(prof.witness),
                     "nodes": prof.nodes,
                     "theoretical_bound": bound}}, args)
    return 0


def _parse_point_id(space, text):
    if text == "e" and "" in space.points:
        return ""
    for p in space.points:
        if str(p) == text:
            return p
    try:
        v = int(text)
        if v in space.points:
            return v
    except ValueError:
        pass
    raise InputError(f"unknown point id {text!r}")


def cmd_cov(args):
    from . import sampled
    space = load_space(args.input)
    n = sampled.covering_number(space, space.points, args.r, mode=args.mode)
    emit({"manifest": manifest(args),
          "result": {"covering_number": n, "region_size": len(space)}}, args)
    return 0


def cmd_classify(args):
    space, gens = load_group_spec(args.input)
    out = []
    for name, g in gens:
        prof = isometry.classify(g, space)
        out.append({"name": name, "kind": prof.kind, "ell": prof.ell,
                    "fixed_boundary": prof.fixed_boundary})
    emit({"manifest": manifest(args),
          "result": {"generators": out}}, args)
    return 0


def cmd_certify(args):
    space, gens = load_group_spec(args.input)
    if len(gens) != 2:
        raise InputError("certification needs exactly two generators")
    man = manifest(args)
    cfg = tits.TitsConfig(**man["config"])
    names = (gens[0][0], gens[1][0])
    cert = tits.tits_witness(space, gens[0][1], gens[1][1], cfg, names=names)
    # in declaration order: vars() would put valid, set after __init__, last
    emit({"manifest": man,
          "result": {f.name: getattr(cert, f.name)
                     for f in dataclasses.fields(cert)
                     if f.name != "violations"}}, args)
    return 0 if cert.valid else 1


def cmd_margulis(args):
    space, gens = load_group_spec(args.input)
    g = gens[0][1]
    rng = random.Random(args.seed)
    center = space.parse_point(args.center)
    sample = space.sample_ball(center, args.radius, args.sample_size, rng)
    rep = isometry.domain_gap_report(space, g, args.eps1, args.eps2, sample,
                                     power_cap=args.power_cap,
                                     P0=args.P0, r0=args.r0)
    emit({"manifest": manifest(args),
          "result": vars(rep)}, args)
    return 0


def _bounds_config(args):
    return bounds.BoundsConfig(P0=args.P0, r0=args.r0, eps0=args.eps0,
                               N=args.N)


def cmd_entropy(args):
    space, gens = load_group_spec(args.input)
    text = args.radii
    try:
        args.radii = [float(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"--radii needs numbers, got {text!r}") from None
    if not all(map(math.isfinite, args.radii)):
        raise InputError(f"--radii needs finite numbers, got {text!r}")
    base = space.parse_point(args.base)
    if args.orbit:
        counts = bounds.orbit_growth_counts(space, gens, base, args.radii,
                                            args.word_cap)
    else:
        counts = bounds.ball_growth_counts(space, base, args.radii)
    rep = bounds.entropy_estimate(counts)
    # the checks read C0 and E0, which need no eps0
    bc = bounds.BoundsConfig(P0=args.P0, r0=args.r0, N=args.N)
    check = bounds.entropy_bounds_check(bc, rep["estimate"], args.context)
    emit({"manifest": manifest(args),
          "result": {**rep, "bounds_check": check}}, args)
    return 0


def cmd_bounds(args):
    bc = _bounds_config(args)
    der = bc.derived()
    result = {"C0": der.C0, "E0": der.E0, "H0": der.H0,
              "diastole_floor": bounds.diastole_floor(bc)}
    if args.nilrad_plus is not None:
        try:
            npl = float(args.nilrad_plus)
        except ValueError:
            raise InputError("--nilrad-plus needs a number or -inf, "
                             f"got {args.nilrad_plus!r}") from None
        result["systole_floor"] = bounds.systole_floor(bc, npl)
        result["nilrad_plus"] = "-inf" if npl == -math.inf else npl
    if args.R is not None and args.r is not None:
        result["packing_bound"] = bounds.packing_bound(
            args.P0, args.r0, args.R, args.r)
    emit({"manifest": manifest(args), "result": result}, args)
    return 0


def cmd_stats(args):
    space, gens = load_group_spec(args.input)
    rng = random.Random(args.seed)
    base = space.parse_point(args.base)
    sample = space.sample_ball(base, args.radius, args.sample_size, rng)
    bc = _bounds_config(args)
    st = bounds.action_stats(space, gens, sample, args.word_cap, bc)
    nil_plus = st.nilrad_plus_estimate
    result = {
        "word_cap": st.word_cap, "sample_size": st.sample_size,
        "sys_min": min(st.sys_at.values()),
        "sys_free_min": min(st.sys_free_at.values()),
        "dias_estimate": st.dias_estimate,
        "nilrad_plus": "-inf" if nil_plus == -math.inf else nil_plus,
        "systole_floor": bounds.systole_floor(bc, nil_plus),
        "diastole_floor": bounds.diastole_floor(bc),
        "note": st.note,
    }
    emit({"manifest": manifest(args), "result": result}, args)
    return 0


def _numbers(v, n=None) -> bool:
    """Whether v is a JSON list of numbers, n of them if n is given."""
    return (isinstance(v, list) and n in (None, len(v))
            and all(type(x) in (int, float) for x in v))


def _polyval(coeffs, t) -> float:
    """The polynomial of the coefficients, highest degree first, at t, by
    Horner's rule from 0.0: ``numpy.polyval`` bit for bit at a float t,
    and in floats at an integer t too, where numpy's int64 would wrap."""
    y = 0.0
    for c in coeffs:
        y = y * t + c
    return y


def cmd_degenerate(args):
    spec = load_json(args.input)
    if not isinstance(spec, dict):
        raise InputError("a degeneration family is a JSON object")
    if spec.get("model", "h2") != "h2":
        raise InputError("degeneration families are matrix families")
    try:
        a = _moebius(spec["a"]["matrix"])
        polys = spec["b"]["poly_matrix"]
    except (KeyError, TypeError):
        raise InputError("degeneration families need a.matrix "
                         "and b.poly_matrix") from None
    if not (isinstance(polys, list) and len(polys) == 2 and all(
            isinstance(row, list) and len(row) == 2 and all(map(_numbers, row))
            for row in polys)):
        raise InputError("b.poly_matrix is a 2x2 matrix of coefficient lists")
    t_range = spec.get("t_range", [0.0, 1.0])
    if not _numbers(t_range, 2):
        raise InputError(f"t_range must be two numbers, got {t_range!r}")
    t0f, t1f = t_range
    steps = args.steps if args.steps is not None else spec.get("steps", 64)
    if not (type(steps) is int and steps >= 0):
        raise InputError(f"steps must be an integer >= 0, got {steps!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "ell", "trace", "kind"])
    try:
        for k in range(steps + 1):
            t = t0f + (t1f - t0f) * k / steps if steps > 0 else t0f
            m = [[_polyval(polys[i][j], t) for j in range(2)]
                 for i in range(2)]
            b = halfplane.Moebius(m[0][0], m[0][1], m[1][0], m[1][1])
            g = a @ b
            tr = abs(g.trace())
            prof = isometry.classify(g, halfplane.H2)
            writer.writerow([f"{t:.12g}", f"{prof.ell:.12g}", f"{tr:.12g}",
                             prof.kind])
    except OverflowError:
        raise InputError("b.poly_matrix or t_range holds an integer beyond "
                         "the float range") from None
    _write(buf.getvalue(), args)
    return 0


# ---------------------------------------------------------------- parser


def _add_bounds_flags(sp, eps0=True):
    """The BoundsConfig flags shared by entropy, bounds and stats; no
    number of entropy's reads eps0."""
    sp.add_argument("--P0", type=int, default=4)
    sp.add_argument("--r0", type=float, default=0.5)
    if eps0:
        sp.add_argument("--eps0", type=float, default=0.1)
    sp.add_argument("--N", type=int, default=1)


@functools.cache
def build_parser():
    """The parser, built once: parsing leaves it as it was."""
    p = argparse.ArgumentParser(
        prog="hypcert",
        description="hyperbolic-geometry toolkit: delta estimation, packing, "
                    "isometry classification, free-group certificates, "
                    "entropy and systole bound checks")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, seeded=False, **kw):
        sp = sub.add_parser(name, **kw)
        # an alias such as tits reports the command's own name
        sp.set_defaults(fn=fn, command=name)
        if seeded:
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", default=None)
        return sp

    # each command takes the flags that change its result, declared in
    # the order its manifest config echoes them
    sp = add("delta", cmd_delta, seeded=True,
             help="four-point hyperbolicity estimate")
    sp.add_argument("--input", required=True)
    sp.add_argument("--mode", choices=["exhaustive", "sampled"],
                    default="exhaustive")
    sp.add_argument("--quadruples", type=int, default=100000)

    sp = add("pack", cmd_pack, help="packing number of a sampled ball")
    sp.add_argument("--input", required=True)
    sp.add_argument("--center", required=True)
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    sp.add_argument("--P0", type=int, default=None)
    sp.add_argument("--r0", type=float, default=1.0)

    sp = add("cov", cmd_cov, help="covering number of a sampled space")
    sp.add_argument("--input", required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--mode", choices=["exact", "greedy"], default="exact")

    sp = add("classify", cmd_classify, help="classify the generators")
    sp.add_argument("--input", required=True)

    sp = add("certify", cmd_certify, aliases=["tits"],
             help="free-group witness search and certification")
    sp.add_argument("--input", required=True)
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--eps0", type=float, default=0.1)
    sp.add_argument("--N-max", dest="N_max", type=int, default=64)
    sp.add_argument("--depth", dest="oracle_depth", type=int, default=8)

    sp = add("margulis", cmd_margulis, seeded=True,
             help="sampled Margulis domain gaps")
    sp.add_argument("--input", required=True)
    sp.add_argument("--eps1", type=float, required=True)
    sp.add_argument("--eps2", type=float, required=True)
    sp.add_argument("--power-cap", type=int, default=64)
    sp.add_argument("--radius", type=float, default=3.0)
    sp.add_argument("--sample-size", type=int, default=1000)
    sp.add_argument("--center", default="0,1")
    sp.add_argument("--P0", type=int, default=None)
    sp.add_argument("--r0", type=float, default=1.0)

    sp = add("entropy", cmd_entropy, help="growth-rate estimate and bounds")
    sp.add_argument("--input", required=True)
    sp.add_argument("--radii", default="1,2,3,4,5,6,7,8,9,10,11,12")
    sp.add_argument("--orbit", action="store_true")
    sp.add_argument("--word-cap", type=int, default=8)
    sp.add_argument("--base", default="e")
    _add_bounds_flags(sp, eps0=False)
    sp.add_argument("--context", default="group_nonelementary",
                    choices=["group_nonelementary", "space"])

    sp = add("bounds", cmd_bounds, help="constant ledger and closed forms")
    _add_bounds_flags(sp)
    sp.add_argument("--nilrad-plus", default=None)
    sp.add_argument("--R", type=float, default=None)
    sp.add_argument("--r", type=float, default=None)

    sp = add("stats", cmd_stats, seeded=True,
             help="sampled systole/diastole/nilradius")
    sp.add_argument("--input", required=True)
    sp.add_argument("--word-cap", type=int, default=4)
    sp.add_argument("--radius", type=float, default=3.0)
    sp.add_argument("--sample-size", type=int, default=100)
    sp.add_argument("--base", default="e")
    _add_bounds_flags(sp)

    sp = add("degenerate", cmd_degenerate,
             help="trajectory of a degenerating matrix family")
    sp.add_argument("--input", required=True)
    sp.add_argument("--steps", type=int, default=None)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        resolve_seed(args)
        # flags the walk and the draw read, refused before any work
        if getattr(args, "word_cap", 1) < 1:
            raise InputError(f"--word-cap must be >= 1, got {args.word_cap}")
        if getattr(args, "sample_size", 1) > pingpong.WORD_BUDGET:
            raise InputError(f"--sample-size {args.sample_size} is past the "
                             f"{pingpong.WORD_BUDGET} points a draw may take")
        code = args.fn(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except SearchExhausted as e:
        print(f"search exhausted: {e}", file=sys.stderr)
        return 4
    except HypcertError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        print(f"elapsed: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
