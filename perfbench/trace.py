"""Per-layer tracing from outside the program.

``install`` replaces module and class attributes of hypcert with thin
wrappers that open a span around each call; ``remove`` puts the original
objects back.  hypcert modules look these names up at call time
(``freetree.reduce_word``, ``type(g).__matmul__``), so calls made inside
a module are caught too.

Spans are aggregated as they close instead of being kept one by one:
the primitives are called up to 10^6 times per run.  A span's self time
is its duration minus the durations of the wrapped spans it directly
contains, which is the part of its interval that no child covers,
because calls nest.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("halfplane", "freetree", "graphspace", "sampled", "isometry",
           "pingpong", "tits", "bounds", "cli")


class Tracer:
    """Stack of open spans plus per-name totals.

    ``clock`` is injectable so that tests can drive a synthetic span
    tree with exact times.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [name, start, time covered by direct children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.open = defaultdict(int)

    def start(self, name):
        self.open[name] += 1
        self.stack.append([name, self.clock(), 0.0])

    def stop(self, error=False):
        name, t0, children = self.stack.pop()
        dur = self.clock() - t0
        self.open[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - children
        if error:
            self.counts[name.split(".", 1)[0] + ".errors"] += 1
        if self.stack:
            self.stack[-1][2] += dur

    def count(self, name, k=1):
        self.counts[name] += k


# --------------------------------------------------------------- hooks
# A hook sees the tracer, the call's arguments and its result, and adds
# work counts; it runs after the span has closed.

def _reduce_chars(tr, args, kwargs, out):
    tr.count("freetree.reduce_word.chars", len(args[0]))


def _quadruples(tr, args, kwargs, out):
    tr.count("sampled.four_point_delta.quadruples", out.quadruples_checked)


def _packing(tr, args, kwargs, out):
    space, center, R = args[0], args[1], args[2]
    row = space.dist[space.index(center)]
    tr.count("sampled.packing_number.ball_points", int((row <= R + 1e-9).sum()))
    tr.count("sampled.packing_number.greedy", out.pack_greedy)
    if out.pack_exact is not None:
        tr.count("sampled.packing_number.exact", out.pack_exact)


def _picks(tr, args, kwargs, out):
    tr.count("sampled.covering_number.picks", out)


def _membership(tr, args, kwargs, out):
    if out:
        tr.count("pingpong.proof_set_membership.nonempty")


def _compose(tr, args, kwargs, out):
    if tr.open["pingpong.word_oracle"]:
        tr.count("pingpong.word_oracle.words")


def _candidates(tr, args, kwargs, out):
    tr.count("tits.tits_witness.candidates", out.search_stats["candidates"])


# (module, attribute path, span name, hook).  Spans without a reported
# metric still matter: they take their time out of their caller's self
# time, e.g. the model distances called from sampled.from_points.
WRAPS = (
    ("halfplane", "dist", "halfplane.dist", None),
    ("halfplane", "Moebius.__matmul__", "halfplane.Moebius.matmul", None),
    ("halfplane", "Moebius.__call__", "halfplane.Moebius.call", None),
    ("halfplane", "Moebius.__pow__", "halfplane.Moebius.pow", None),
    ("halfplane", "sample_ball", "halfplane.sample_ball", None),
    ("freetree", "reduce_word", "freetree.reduce_word", _reduce_chars),
    ("freetree", "FreeTreeSpace.check_point",
     "freetree.FreeTreeSpace.check_point", None),
    ("freetree", "FreeTreeSpace.dist", "freetree.FreeTreeSpace.dist", None),
    ("graphspace", "MetricGraphSpace.__init__",
     "graphspace.MetricGraphSpace.init", None),
    ("graphspace", "MetricGraphSpace.dist",
     "graphspace.MetricGraphSpace.dist", None),
    ("sampled", "from_points", "sampled.from_points", None),
    ("sampled", "SampledSpace.__post_init__",
     "sampled.SampledSpace.validate", None),
    ("sampled", "four_point_delta", "sampled.four_point_delta", _quadruples),
    ("sampled", "packing_number", "sampled.packing_number", _packing),
    ("sampled", "covering_number", "sampled.covering_number", _picks),
    ("isometry", "classify", "isometry.classify", None),
    ("isometry", "orbit_translation_length",
     "isometry.orbit_translation_length", None),
    ("isometry", "apply_isometry", "isometry.apply_isometry", None),
    ("isometry", "isometry_power", "isometry.isometry_power", None),
    ("isometry", "domain_gap_report", "isometry.domain_gap_report", None),
    ("pingpong", "min_free_power", "pingpong.min_free_power", None),
    ("pingpong", "pingpong_data", "pingpong.pingpong_data", None),
    ("pingpong", "proof_set_membership", "pingpong.proof_set_membership",
     _membership),
    ("pingpong", "pingpong_certify", "pingpong.pingpong_certify", None),
    ("pingpong", "word_oracle", "pingpong.word_oracle", None),
    ("pingpong", "_compose", "pingpong.compose", _compose),
    ("tits", "tits_witness", "tits.tits_witness", _candidates),
    ("tits", "evaluate_word", "tits.evaluate_word", None),
    ("bounds", "action_stats", "bounds.action_stats", None),
    ("bounds", "orbit_growth_counts", "bounds.orbit_growth_counts", None),
    ("bounds", "entropy_estimate", "bounds.entropy_estimate", None),
    ("cli", "load_group_spec", "cli.load_group_spec", None),
    ("cli", "emit", "cli.emit", None),
    ("cli", "main", "cli.main", None),
)

# generator functions: the span would close before any work is done, so
# these only count what they yield
GENERATORS = (
    ("tits", "enumerate_words", "tits.enumerate_words.words"),
)


def _wrap(tr, fn, name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.start(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tr.stop(error=True)
            raise
        tr.stop()
        if hook is not None:
            hook(tr, args, kwargs, out)
        return out
    return wrapper


def _wrap_generator(tr, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tr.counts[name] += 1
            yield item
    return wrapper


def _owner(module, path):
    obj = importlib.import_module("hypcert." + module)
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, attr


def install(tr):
    """Wrap every traced attribute; returns the list ``remove`` needs."""
    saved = []
    try:
        for module, path, name, hook in WRAPS:
            owner, attr = _owner(module, path)
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _wrap(tr, orig, name, hook))
        for module, path, name in GENERATORS:
            owner, attr = _owner(module, path)
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _wrap_generator(tr, orig, name))
    except BaseException:
        remove(saved)
        raise
    return saved


def remove(saved):
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)
    saved.clear()


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tr) -> dict:
    """The per-layer metrics, as {name: (value, unit)}; names that did not
    run read 0."""
    c, s, k = tr.calls, tr.self_s, tr.counts
    out = {}

    def calls(name):
        out[name + ".calls"] = (c[name], "count")

    def self_s(name):
        out[name + ".self_s"] = (s[name], "s")

    for name in ("halfplane.dist", "halfplane.Moebius.matmul",
                 "halfplane.Moebius.call", "halfplane.Moebius.pow",
                 "freetree.reduce_word", "freetree.FreeTreeSpace.check_point",
                 "graphspace.MetricGraphSpace.dist", "isometry.classify",
                 "isometry.orbit_translation_length", "isometry.isometry_power",
                 "pingpong.proof_set_membership", "pingpong.word_oracle",
                 "tits.evaluate_word"):
        calls(name)
        self_s(name)
    for name in ("halfplane.sample_ball", "graphspace.MetricGraphSpace.init",
                 "sampled.from_points", "sampled.SampledSpace.validate",
                 "sampled.four_point_delta", "sampled.packing_number",
                 "sampled.covering_number", "isometry.domain_gap_report",
                 "pingpong.min_free_power", "pingpong.pingpong_data",
                 "pingpong.pingpong_certify", "tits.tits_witness",
                 "bounds.action_stats", "bounds.orbit_growth_counts",
                 "bounds.entropy_estimate", "cli.load_group_spec", "cli.emit",
                 "cli.main"):
        self_s(name)
    calls("isometry.apply_isometry")
    for name in ("freetree.reduce_word.chars",
                 "sampled.four_point_delta.quadruples",
                 "sampled.packing_number.ball_points",
                 "sampled.covering_number.picks",
                 "pingpong.word_oracle.words", "tits.tits_witness.candidates",
                 "tits.enumerate_words.words"):
        out[name] = (int(k[name]), "count")
    out["sampled.packing_number.exact_over_greedy"] = (
        _ratio(k["sampled.packing_number.exact"],
               k["sampled.packing_number.greedy"]), "ratio")
    out["pingpong.proof_set_membership.nonempty_ratio"] = (
        _ratio(k["pingpong.proof_set_membership.nonempty"],
               c["pingpong.proof_set_membership"]), "ratio")
    for module in MODULES:
        out[module + ".errors"] = (int(k[module + ".errors"]), "count")
    return out
