"""Outside-in tracer: every public function of every toriclg layer is
replaced, for the traced run only, by a wrapper that records a span.

Patching the module attribute catches calls from other modules (they all
go through `module.function`) and calls inside the same module (global
lookups).  A span is (function, parent span, start, end), kept in flat
arrays and written out when the run ends.  Self time is a span's length
minus the length of its child spans.  A generator function counts one
call per generator started and one span per next(), so its time is the time
spent producing items.  Counts such as term pairs or hull points are
computed here from arguments and results; nothing in src/ changes.
While `paused` is set, the wrappers call straight through and record
nothing; the benchmark sets it while it checks an operation's output.
"""

import inspect
import math
from array import array
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "laurent", "intlinalg", "polytope", "period", "mutation", "constructions", "degeneration", "minkowski")


def _box_size(P):
    count = 1
    for k in range(P.dim_ambient):
        values = [Fraction(v[k]) for v in P.vertices]
        count *= max(0, math.floor(max(values)) - math.ceil(min(values)) + 1)
    return count


def _count_mul(tracer, args, result):
    tracer.counts["laurent.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _count_period(tracer, args, result):
    tracer.counts["period.period_sequence.terms_x_depth"] += len(args[0].terms) * args[1]


def _count_lattice_points(tracer, args, result):
    tracer.counts["polytope.lattice_points.box_candidates"] += _box_size(args[0])
    tracer.counts["polytope.lattice_points.hits"] += len(result)


def _count_hull(tracer, args, result):
    tracer.counts["polytope.convex_hull.points_in"] += len(args[0])
    tracer.counts["polytope.convex_hull.vertices_out"] += len(result.vertices)


def _count_found(key):
    def hook(tracer, args, result):
        tracer.counts[key] += result is not None

    return hook


def _count_cluster(tracer, args, result):
    tracer.counts["mutation.apply_cluster.laurent"] += 1


HOOKS = {
    "laurent.mul": _count_mul,
    "period.period_sequence": _count_period,
    "polytope.lattice_points": _count_lattice_points,
    "polytope.convex_hull": _count_hull,
    "mutation.equivalent_up_to_toric": _count_found("mutation.equivalent_up_to_toric.found"),
    "minkowski.find_presentation": _count_found("minkowski.find_presentation.found"),
    "mutation.apply_cluster": _count_cluster,
}


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.names = []
        self.fn = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self.saved = []
        self.paused = False

    def install(self):
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                self.saved.append((module, name, obj))
                setattr(module, name, self._wrap(obj, "%s.%s" % (layer, name)))

    def uninstall(self):
        for module, name, obj in self.saved:
            setattr(module, name, obj)
        self.saved = []

    def _open(self, fid):
        idx = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = idx
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    def _wrap(self, fn, qualname):
        fid = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        # the hull count needs len() of its points, which may be an iterator
        listify = qualname == "polytope.convex_hull"
        tracer = self
        if inspect.isgeneratorfunction(fn):

            def generator(*args, **kwargs):
                if tracer.paused:
                    return (yield from fn(*args, **kwargs))
                tracer.calls[qualname] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(fid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    except BaseException:
                        tracer.errors[qualname] += 1
                        raise
                    finally:
                        tracer._close(idx)
                    tracer.counts[qualname + ".yielded"] += 1
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.calls[qualname] += 1
            if listify:
                args = (list(args[0]),) + args[1:]
            idx = tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[qualname] += 1
                raise
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def dump(self, path):
        """Spans as four raw arrays plus the name table, for offline reading."""
        with open(path + ".names", "w") as handle:
            handle.write("\n".join(self.names) + "\n")
        with open(path, "wb") as handle:
            for column in (self.fn, self.parent, self.start, self.end):
                column.tofile(handle)

    def self_times(self):
        """Self time per function: its spans minus their child spans."""
        count = len(self.fn)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        own = defaultdict(float)
        for i in range(count):
            own[self.names[self.fn[i]]] += self.end[i] - self.start[i] - child[i]
        return own

    def spans_under(self, name, ancestor):
        """Number of spans of `name` with a span of `ancestor` above them."""
        if name not in self.names or ancestor not in self.names:
            return 0
        fid, aid = self.names.index(name), self.names.index(ancestor)
        total = 0
        for i in range(len(self.fn)):
            if self.fn[i] != fid:
                continue
            p = self.parent[i]
            while p >= 0 and self.fn[p] != aid:
                p = self.parent[p]
            total += p >= 0
        return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, face_cache_info, out_bytes):
    """The per-layer metrics the benchmark reports, by name."""
    own = tracer.self_times()
    calls, counts, errors = tracer.calls, tracer.counts, tracer.errors
    m = {}

    def fn(name, *stats):
        for stat in stats:
            if stat == "calls":
                m[name + ".calls"] = calls[name]
            elif stat == "self_s":
                m[name + ".self_s"] = own[name]
            elif stat == "errors":
                m[name + ".errors"] = errors[name]

    fn("period.period_sequence", "calls", "self_s")
    m["period.period_sequence.terms_x_depth"] = counts["period.period_sequence.terms_x_depth"]
    fn("polytope.lattice_equivalence_candidates", "self_s")
    m["polytope.lattice_equivalence_candidates.yielded"] = counts["polytope.lattice_equivalence_candidates.yielded"]
    fn("mutation.equivalent_up_to_toric", "calls", "self_s")
    m["mutation.equivalent_up_to_toric.found_ratio"] = _ratio(
        counts["mutation.equivalent_up_to_toric.found"], calls["mutation.equivalent_up_to_toric"]
    )
    for name in ("intlinalg.rank", "intlinalg.solve", "intlinalg.matrix_inverse"):
        fn(name, "calls")
    fn("intlinalg.smith_normal_form", "self_s")
    fn("polytope.faces", "calls", "self_s")
    fn("polytope.lattice_points", "calls", "self_s")
    boxes = counts["polytope.lattice_points.box_candidates"]
    m["polytope.lattice_points.box_candidates"] = boxes
    m["polytope.lattice_points.hit_ratio"] = _ratio(counts["polytope.lattice_points.hits"], boxes)
    fn("polytope.convex_hull", "calls", "self_s")
    m["polytope.convex_hull.points_in"] = counts["polytope.convex_hull.points_in"]
    m["polytope.convex_hull.vertices_out"] = counts["polytope.convex_hull.vertices_out"]
    fn("polytope.newton_polytope", "calls")
    m["minkowski.newton_per_search"] = _ratio(
        tracer.spans_under("polytope.newton_polytope", "minkowski.find_presentation"),
        calls["minkowski.find_presentation"],
    )
    m["polytope.face_sets_cache.hit_ratio"] = _ratio(
        face_cache_info.hits, face_cache_info.hits + face_cache_info.misses
    )
    fn("minkowski.find_presentation", "calls", "self_s")
    m["minkowski.find_presentation.found_ratio"] = _ratio(
        counts["minkowski.find_presentation.found"], calls["minkowski.find_presentation"]
    )
    fn("minkowski.verify_presentation", "self_s")
    fn("minkowski.face_restriction", "calls")
    fn("laurent.mul", "calls", "self_s")
    m["laurent.mul.term_pairs"] = counts["laurent.mul.term_pairs"]
    fn("laurent.pow", "self_s")
    fn("laurent.exact_divide", "calls", "self_s", "errors")
    fn("laurent.monomial_substitute", "self_s")
    fn("mutation.apply_cluster", "calls", "self_s")
    m["mutation.apply_cluster.laurent_ratio"] = _ratio(
        counts["mutation.apply_cluster.laurent"], calls["mutation.apply_cluster"]
    )
    fn("constructions.galkin_mutate", "self_s")
    fn("degeneration.mutate_polytope", "calls", "self_s")
    fn("cli.main", "calls", "self_s")
    m["cli.out_bytes"] = out_bytes
    fn("laurent.parse", "self_s")
    fn("laurent.format", "self_s")
    for layer in LAYERS:
        prefix = layer + "."
        m[layer + ".self_s"] = sum(v for k, v in own.items() if k.startswith(prefix))
        m[layer + ".calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
        m[layer + ".errors"] = sum(v for k, v in errors.items() if k.startswith(prefix))
    return m
