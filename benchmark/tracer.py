"""Spans around the public functions of each module, recorded from outside
the package.

`Tracer.install()` replaces each listed function in its defining module
and at every other binding of the same object in the package (a name
imported with `from .algebra import poly_det`, a class attribute such as
`MultiPoly.__rmul__`).  Each call then records one span: name, start,
end, parent span and the request it belongs to.  Spans stay in memory
until `save()`.  Self time is a span's duration minus that of its
direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (layer, module, attribute) of every traced function; the metric prefix
# is "<layer>.<attribute>"
TRACED = (
    ("roots", "roots", "build_root_system"),
    ("roots", "roots", "span_subsystem"),
    ("roots", "roots", "reduce_to_fundamental"),
    ("strata", "strata", "make_stratum"),
    ("strata", "strata", "restricted_arrangement"),
    ("strata", "strata", "q_polynomial"),
    ("algebra", "algebra", "MultiPoly.__mul__"),
    ("algebra", "algebra", "MultiPoly.__pow__"),
    ("algebra", "algebra", "MultiPoly.substitute"),
    ("algebra", "algebra", "poly_det"),
    ("algebra", "algebra", "divide_exact"),
    ("algebra", "algebra", "factor_linear"),
    ("algebra", "algebra", "try_divide"),
    ("exactla", "exactla", "solve"),
    ("exactla", "exactla", "rank"),
    ("exactla", "exactla", "nullspace"),
    ("saitosym", "saitosym", "flat_coordinates"),
    ("saitosym", "saitosym", "convolution_matrix"),
    ("saitosym", "saitosym", "express_in_invariants"),
    ("saitosym", "saitosym", "restricted_saito_det"),
    ("saitosym", "saitosym", "general_formula_det"),
    ("saitosym", "saitosym", "frame_constant"),
    ("saitosym", "saitosym", "identity_field_checks"),
    ("lgclassical", "lgclassical", "closed_form_det_A"),
    ("lgclassical", "lgclassical", "closed_form_det_BD"),
    ("lgclassical", "lgclassical", "residue_metric_at"),
    ("lgclassical", "lgclassical", "frobenius_check_at"),
    ("cli", "cli", "cmd_predict"),
    ("cli", "cli", "cmd_det"),
    ("cli", "cli", "cmd_classical"),
    ("cli", "cli", "cmd_tables"),
    ("cli", "cli", "cmd_verify"),
)
# dunder methods are reported under their operator's name
_SPAN_NAMES = {"MultiPoly.__mul__": "MultiPoly.mul",
               "MultiPoly.__pow__": "MultiPoly.pow"}


def span_name(layer, attr):
    return f"{layer}.{_SPAN_NAMES.get(attr, attr)}"


# counts taken from a call's arguments or result, keyed by span name
def _terms_out(args, result):
    return "terms_out", len(result.terms)


def _terms_in(args, result):
    return "terms_in", len(args[0].terms)


def _hits(args, result):
    return "hits", result is not None


def _hyperplanes(args, result):
    return "hyperplanes", len(result)


COUNTS = {"algebra.MultiPoly.mul": _terms_out,
          "algebra.divide_exact": _terms_in,
          "algebra.try_divide": _hits,
          "strata.restricted_arrangement": _hyperplanes}


class Tracer:
    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.names = []
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")
        self.request = -1          # set by the workload before each request
        self.counts = Counter()
        self.bindings = []
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTS.get(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, requests, stack = self.parents, self.requests, self._stack
        counts, clock = self.counts, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            requests.append(self.request)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                key, n = count(args, result)
                counts[f"{name}.{key}"] += n
            return result

        return traced

    def install(self):
        """Wrap every TRACED function at each of its bindings."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "saitostrata" or n.startswith("saitostrata.")]
        namespaces = [(m.__name__, m) for m in mods]
        namespaces += [(f"{m.__name__}.{k}", v) for m in mods
                       for k, v in vars(m).items()
                       if isinstance(v, type) and v.__module__ == m.__name__]
        for layer, module, attr in TRACED:
            owner = sys.modules[f"saitostrata.{module}"]
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            orig = getattr(owner, attr.split(".")[-1])
            wrapped = self._wrap(span_name(layer, attr), orig)
            for where, ns in namespaces:
                for k, v in list(vars(ns).items()):
                    if v is orig:
                        setattr(ns, k, wrapped)
                        self._undo.append((ns, k, orig))
                        self.bindings.append(f"{where}.{k}")

    def uninstall(self):
        for ns, k, orig in reversed(self._undo):
            setattr(ns, k, orig)
        self._undo.clear()

    def per_name(self):
        """{span name: (calls, self seconds)} over all recorded spans."""
        import numpy as np
        ids = np.frombuffer(self.name_ids, dtype=np.uint16)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_s = np.bincount(ids, weights=dur - child,
                             minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i]))
                for i, n in enumerate(self.names)}

    def calls_under(self, child, parent):
        """Number of `child` spans whose direct parent is a `parent` span."""
        import numpy as np
        ids = np.frombuffer(self.name_ids, dtype=np.uint16)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        c, p = self.names.index(child), self.names.index(parent)
        mask = (ids == c) & (parents >= 0)
        return int(np.count_nonzero(ids[parents[mask]] == p))

    def save(self, path, header):
        """Write the spans (numpy .npz) and a JSON header next to them."""
        import numpy as np
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name_ids, dtype=np.uint16),
            start=np.frombuffer(self.starts), end=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            request=np.frombuffer(self.requests, dtype=np.int64))
        header = dict(header, pass_id=self.pass_id, names=self.names,
                      bindings=self.bindings, spans=len(self.starts))
        with open(str(path) + ".json", "w") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
