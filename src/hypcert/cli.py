"""Command-line front end: JSON reports, fixtures, and the degeneration
experiment.

Every report embeds its run manifest (command, inputs, config, seed,
version); reruns with identical manifests are byte-identical, so wall
times go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import time

import numpy as np

from . import __version__, bounds, freetree, graphspace, halfplane
from . import isometry, sampled, tits
from .errors import (BudgetError, HypcertError, InputError, SearchExhausted)


def _round12(obj):
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return repr(obj)
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return {"re": _round12(obj.real), "im": _round12(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, freetree.TreeEnd):
        return {"prefix": obj.prefix, "period": obj.period}
    if isinstance(obj, halfplane.Moebius):
        return {"matrix": [[_round12(obj.a), _round12(obj.b)],
                           [_round12(obj.c), _round12(obj.d)]]}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def emit(report, args):
    text = json.dumps(_round12(report), indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def manifest(args, command, config):
    return {
        "command": command,
        "input": getattr(args, "input", None),
        "config": config,
        "seed": args.seed,
        "version": __version__,
    }


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such input file: {path}")
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: {e}")


def load_space(path) -> sampled.SampledSpace:
    return sampled.SampledSpace.from_json(load_json(path))


def load_group_spec(path):
    """Parse {"model": ..., "params": ..., "generators": [...]} input."""
    obj = load_json(path)
    model = obj.get("model")
    params = obj.get("params", {})
    gens_spec = obj.get("generators", [])
    gens = []
    if model == "h2":
        space = halfplane.H2
        for k, g in enumerate(gens_spec):
            m = g.get("matrix")
            if m is None:
                raise InputError("h2 generators need a matrix")
            gens.append((g.get("name", f"g{k}"),
                         halfplane.Moebius(m[0][0], m[0][1], m[1][0], m[1][1])))
    elif model == "free_tree":
        space = freetree.FreeTreeSpace(int(params.get("rank", 2)))
        for k, g in enumerate(gens_spec):
            if "word" not in g:
                raise InputError("free_tree generators need a word")
            gens.append((g.get("name", f"g{k}"),
                         freetree.parse_word(g["word"])))
    elif model == "graph":
        verts = params.get("vertices")
        edges = params.get("edges")
        if verts is None or edges is None:
            raise InputError("graph model needs params.vertices and params.edges")
        verts = [tuple(v) if isinstance(v, list) else v for v in verts]
        space = graphspace.MetricGraphSpace(
            verts, [(verts[int(u)], verts[int(v)], w) for u, v, w in edges])
        for k, g in enumerate(gens_spec):
            if "perm" not in g:
                raise InputError("graph generators need a perm")
            name = g.get("name", f"g{k}")
            space.register_isometry(
                name, {verts[i]: verts[int(j)] for i, j in enumerate(g["perm"])})
            gens.append((name, name))
    else:
        raise InputError(f"unknown model {model!r}")
    names = [name for name, _ in gens]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate generator names in {names}")
    return space, gens


def resolve_seed(args):
    env = os.environ.get("HYPCERT_SEED")
    if env is not None:
        try:
            args.seed = int(env)
        except ValueError:
            raise InputError(f"HYPCERT_SEED must be an integer, got {env!r}")
    return args.seed


# ---------------------------------------------------------------- commands


def cmd_delta(args):
    space = load_space(args.input)
    est = sampled.four_point_delta(space, mode=args.mode,
                                   n_quadruples=args.quadruples,
                                   seed=args.seed)
    cfg = {"mode": args.mode, "quadruples": args.quadruples}
    emit({"manifest": manifest(args, "delta", cfg),
          "result": {"delta_hat": est.delta_hat,
                     "quadruples_checked": est.quadruples_checked,
                     "mode": est.mode,
                     "worst_quadruple": list(est.worst_quadruple)}}, args)
    return 0


def cmd_pack(args):
    space = load_space(args.input)
    center = _parse_point_id(space, args.center)
    prof = sampled.packing_number(space, center, args.R, args.r,
                                  mode=args.mode)
    if args.P0 is not None:
        prof.theoretical_bound = bounds.packing_bound(
            args.P0, args.r0, args.R, args.r)
    cfg = {"center": args.center, "R": args.R, "r": args.r, "mode": args.mode,
           "P0": args.P0, "r0": args.r0}
    emit({"manifest": manifest(args, "pack", cfg),
          "result": {"pack_exact": prof.pack_exact,
                     "pack_greedy": prof.pack_greedy,
                     "cov_greedy": prof.cov_greedy,
                     "witness": list(prof.witness),
                     "theoretical_bound": prof.theoretical_bound}}, args)
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
    space = load_space(args.input)
    n = sampled.covering_number(space, space.points, args.r, mode=args.mode)
    cfg = {"r": args.r, "mode": args.mode}
    emit({"manifest": manifest(args, "cov", cfg),
          "result": {"covering_number": n, "region_size": len(space)}}, args)
    return 0


def cmd_classify(args):
    space, gens = load_group_spec(args.input)
    out = []
    for name, g in gens:
        prof = isometry.classify(g, space)
        out.append({"name": name, "kind": prof.kind, "ell": prof.ell,
                    "asymptotic": prof.asymptotic,
                    "fixed_boundary": prof.fixed_boundary})
    emit({"manifest": manifest(args, "classify", {}),
          "result": {"generators": out}}, args)
    return 0


def cmd_certify(args):
    space, gens = load_group_spec(args.input)
    if len(gens) != 2:
        raise InputError("certification needs exactly two generators")
    cfg = tits.TitsConfig(delta=args.delta, eps0=args.eps0,
                          N_max=args.N_max, oracle_depth=args.depth,
                          sample_size=args.sample_size, seed=args.seed)
    names = (gens[0][0], gens[1][0])
    wit = tits.tits_witness(space, gens[0][1], gens[1][1], cfg, names=names)
    cert = wit.certificate
    report = {
        "manifest": manifest(args, "certify", vars(cfg).copy()),
        "result": {
            "case": wit.case_tag, "N": wit.N, "witness_word": wit.w,
            "kind": cert.kind, "valid": cert.valid,
            "M0": cert.M0, "swapped": cert.swapped,
            "disjoint_ok": cert.disjoint_ok, "nesting_ok": cert.nesting_ok,
            "oracle_depth": cert.oracle_depth,
            "oracle_passed": cert.oracle_passed,
            "sample_size": cert.sample_size,
            "search_stats": {k: v for k, v in wit.search_stats.items()
                             if k != "time"},
        },
    }
    emit(report, args)
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
    cfg = {"eps1": args.eps1, "eps2": args.eps2, "power_cap": args.power_cap,
           "radius": args.radius, "sample_size": args.sample_size,
           "center": args.center, "P0": args.P0, "r0": args.r0}
    emit({"manifest": manifest(args, "margulis", cfg),
          "result": vars(rep)}, args)
    return 0


def _bounds_config(args):
    return bounds.BoundsConfig(P0=args.P0, r0=args.r0, delta=args.delta,
                               eps0=args.eps0, N=args.N)


def cmd_entropy(args):
    space, gens = load_group_spec(args.input)
    radii = [float(x) for x in args.radii.split(",")]
    base = space.parse_point(args.base)
    if args.orbit:
        counts = bounds.orbit_growth_counts(space, gens, base, radii,
                                            args.word_cap)
    else:
        counts = bounds.ball_growth_counts(space, base, radii)
    rep = bounds.entropy_estimate(counts)
    bc = _bounds_config(args)
    check = bounds.entropy_bounds_check(bc, rep["estimate"], args.context)
    cfg = {"radii": radii, "orbit": args.orbit, "word_cap": args.word_cap,
           "base": args.base, "P0": args.P0, "r0": args.r0, "N": args.N,
           "eps0": args.eps0, "context": args.context}
    emit({"manifest": manifest(args, "entropy", cfg),
          "result": {"estimate": rep["estimate"], "counts": rep["counts"],
                     "window": rep["window"], "bounds_check": check}}, args)
    return 0


def cmd_bounds(args):
    bc = _bounds_config(args)
    der = bc.derived()
    result = {"config": vars(bc), "C0": der.C0, "E0": der.E0, "H0": der.H0,
              "diastole_floor": bounds.diastole_floor(bc)}
    if args.nilrad_plus is not None:
        npl = -math.inf if args.nilrad_plus == "-inf" \
            else float(args.nilrad_plus)
        result["systole_floor"] = bounds.systole_floor(bc, npl)
        result["nilrad_plus"] = "-inf" if npl == -math.inf else npl
    if args.R is not None and args.r is not None:
        result["packing_bound"] = bounds.packing_bound(
            args.P0, args.r0, args.R, args.r)
    emit({"manifest": manifest(args, "bounds", vars(bc)),
          "result": result}, args)
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
        "note": ("sys values are word_cap-truncated over-estimates; "
                 "dias under-estimates the true supremum"),
    }
    cfg = {"word_cap": args.word_cap, "radius": args.radius,
           "sample_size": args.sample_size, "base": args.base,
           **vars(bc)}
    emit({"manifest": manifest(args, "stats", cfg), "result": result}, args)
    return 0


def cmd_degenerate(args):
    spec = load_json(args.input)
    if spec.get("model", "h2") != "h2":
        raise InputError("degeneration families are matrix families")
    am = spec["a"]["matrix"]
    a = halfplane.Moebius(am[0][0], am[0][1], am[1][0], am[1][1])
    polys = spec["b"]["poly_matrix"]
    t0f, t1f = spec.get("t_range", [0.0, 1.0])
    steps = args.steps if args.steps is not None else spec.get("steps", 64)
    rows = []
    for k in range(steps + 1):
        t = t0f + (t1f - t0f) * k / steps if steps > 0 else t0f
        m = [[float(np.polyval(polys[i][j], t)) for j in range(2)]
             for i in range(2)]
        b = halfplane.Moebius(m[0][0], m[0][1], m[1][0], m[1][1])
        g = a @ b
        tr = abs(g.trace())
        prof = isometry.classify(g)
        rows.append((t, prof.ell, tr, prof.kind))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "ell", "trace", "kind"])
    for t, ell, tr, kind in rows:
        writer.writerow([f"{t:.12g}", f"{ell:.12g}", f"{tr:.12g}", kind])
    text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- parser


def _add_bounds_flags(sp):
    """The BoundsConfig flags shared by entropy, bounds and stats."""
    sp.add_argument("--P0", type=int, default=4)
    sp.add_argument("--r0", type=float, default=0.5)
    sp.add_argument("--delta", type=float, default=1.0)
    sp.add_argument("--eps0", type=float, default=0.1)
    sp.add_argument("--N", type=int, default=1)


def build_parser():
    p = argparse.ArgumentParser(
        prog="hypcert",
        description="hyperbolic-geometry toolkit: delta estimation, packing, "
                    "isometry classification, free-group certificates, "
                    "entropy and systole bound checks")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", default=None)
        return sp

    sp = add("delta", cmd_delta, help="four-point hyperbolicity estimate")
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
    sp.add_argument("--depth", type=int, default=8)
    sp.add_argument("--N-max", dest="N_max", type=int, default=64)
    sp.add_argument("--sample-size", type=int, default=400)

    sp = add("margulis", cmd_margulis, help="sampled Margulis domain gaps")
    sp.add_argument("--input", required=True)
    sp.add_argument("--eps1", type=float, required=True)
    sp.add_argument("--eps2", type=float, required=True)
    sp.add_argument("--power-cap", type=int, default=64)
    sp.add_argument("--center", default="0,1")
    sp.add_argument("--radius", type=float, default=3.0)
    sp.add_argument("--sample-size", type=int, default=1000)
    sp.add_argument("--P0", type=int, default=None)
    sp.add_argument("--r0", type=float, default=1.0)

    sp = add("entropy", cmd_entropy, help="growth-rate estimate and bounds")
    sp.add_argument("--input", required=True)
    sp.add_argument("--radii", default="1,2,3,4,5,6,7,8,9,10,11,12")
    sp.add_argument("--base", default="e")
    sp.add_argument("--orbit", action="store_true")
    sp.add_argument("--word-cap", type=int, default=8)
    sp.add_argument("--context", default="group_nonelementary",
                    choices=["group_nonelementary", "space"])
    _add_bounds_flags(sp)

    sp = add("bounds", cmd_bounds, help="constant ledger and closed forms")
    _add_bounds_flags(sp)
    sp.add_argument("--nilrad-plus", default=None)
    sp.add_argument("--R", type=float, default=None)
    sp.add_argument("--r", type=float, default=None)

    sp = add("stats", cmd_stats, help="sampled systole/diastole/nilradius")
    sp.add_argument("--input", required=True)
    sp.add_argument("--word-cap", type=int, default=4)
    sp.add_argument("--base", default="e")
    sp.add_argument("--radius", type=float, default=3.0)
    sp.add_argument("--sample-size", type=int, default=100)
    _add_bounds_flags(sp)

    sp = add("degenerate", cmd_degenerate,
             help="trajectory of a degenerating matrix family")
    sp.add_argument("--input", required=True)
    sp.add_argument("--steps", type=int, default=None)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    resolve_seed(args)
    t0 = time.monotonic()
    try:
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
