"""Per-layer tracing from outside the program.

The tracer replaces turan_forge's public functions, at run time only, with
timed wrappers.  A function is replaced under every name that callers look
it up by: each module attribute in the package that refers to the original
object (``oracle.verify_certificate`` and the ``verify_certificate``
imported into ``embedders`` alike), so nested calls such as the
``find_prism_path`` inside ``find_prism`` are caught too.  A layer's self
time is its spans minus the wrapped calls made inside them; private helpers
are not wrapped and count towards the public function that calls them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

# layer -> the public functions (module, attribute) timed under its name
FUNCTIONS = {
    "cli.run_pipeline": [("cli", "run_pipeline")],
    "graphs.read_edge_list": [("graphs", "read_edge_list")],
    "transforms.peel_min_degree": [("transforms", "peel_min_degree")],
    "transforms.bipartite_half": [("transforms", "bipartite_half")],
    "transforms.clean_subgraph": [("transforms", "clean_subgraph")],
    "counting.hom_path_count": [("counting", "hom_path_count")],
    "rich_collections.build_exhaustive": [
        ("rich_collections", "build_rich_paths"),
        ("rich_collections", "build_rich_cycles"),
        ("rich_collections", "build_good_paths")],
    "rich_collections.build_layered": [
        ("rich_collections", "layered_rich_paths"),
        ("rich_collections", "layered_rich_cycles"),
        ("rich_collections", "layered_good_paths")],
    "matching.max_disjoint_edges": [("matching", "max_disjoint_edges")],
    "embedders.embed_grid": [("embedders", "embed_grid")],
    "embedders.embed_cylinder": [("embedders", "embed_cylinder")],
    "embedders.embed_torus": [("embedders", "embed_torus")],
    "embedders.embed_honeycomb": [("embedders", "embed_honeycomb")],
    "embedders.find_prism_path": [("embedders", "find_prism_path")],
    "embedders.find_prism": [("embedders", "find_prism")],
    "oracle.verify_certificate": [("oracle", "verify_certificate")],
    "oracle.find_subgraph": [("oracle", "find_subgraph")],
}

# layer -> (module, class, method)
METHODS = {
    "graphs.codegree_matrix": ("graphs", "Graph", "codegree_matrix"),
    "graphs.remove": ("graphs", "Graph", "remove"),
    "rich_collections.collection_init": ("rich_collections",
                                         "LabeledCollection", "__init__"),
}


def _codegree_fresh(args, _kwargs):
    # a build is the first call on a Graph whose matrix is not cached yet
    return getattr(args[0], "_codeg_matrix", None) is None


def _count_codegree(tr, args, result, fresh):
    if fresh and result is not None:
        tr.counts["graphs.codegree_matrix_builds"] += 1


def _count_clean(tr, args, result, _):
    tr.counts["transforms.clean_subgraph_passes"] += result[1].steps_taken


def _count_exhaustive(tr, args, result, _):
    diag = result[1].diagnostics
    tr.counts["rich_collections.exhaustive_seed_members"] += diag.get("seed", 0)
    tr.counts["rich_collections.exhaustive_final_members"] += diag.get("final", 0)


def _count_members(tr, args, result, _):
    tr.counts["rich_collections.members"] += len(args[0])


def _count_torus_nodes(tr, args, result, _):
    if result is not None:
        tr.counts["embedders.embed_torus_nodes"] += result.method.get("nodes", 0)


# layer -> (before(args, kwargs) -> state, after(tracer, args, result, state))
HOOKS = {
    "graphs.codegree_matrix": (_codegree_fresh, _count_codegree),
    "transforms.clean_subgraph": (None, _count_clean),
    "rich_collections.build_exhaustive": (None, _count_exhaustive),
    "rich_collections.collection_init": (None, _count_members),
    "embedders.embed_torus": (None, _count_torus_nodes),
}


class Tracer:
    """Self time, call counts and work counters per layer, kept in memory."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # wrapped time inside each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        before, after = HOOKS.get(layer, (None, None))
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                self.self_s[layer] += span - children.pop()
                self.calls[layer] += 1
                if children:
                    children[-1] += span
            if after:
                after(self, args, result, state)
            return result

        return traced

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if m is not None
                   and (key == "turan_forge" or key.startswith("turan_forge."))]
        for layer, places in FUNCTIONS.items():
            for mod_name, attr in places:
                mod = sys.modules.get(f"turan_forge.{mod_name}")
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapped = self._wrap(layer, orig)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, name, wrapped)
        for layer, (mod_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules.get(f"turan_forge.{mod_name}"),
                          cls_name, None)
            orig = getattr(cls, attr, None)
            if orig is not None:
                self._patch(cls, attr, self._wrap(layer, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def metric(self, name: str) -> float:
        """Value of a per-layer metric name: ``<layer>_s`` self time,
        ``<layer>_calls``, or else a counter that the hooks keep."""
        if name == "trace.wrapped_calls":
            return sum(self.calls.values())
        if name.endswith("_calls"):
            return self.calls.get(name[:-len("_calls")], 0)
        if name.endswith("_self_s"):
            return self.self_s.get(name[:-len("_self_s")], 0.0)
        if name.endswith("_s"):
            return self.self_s.get(name[:-len("_s")], 0.0)
        return self.counts.get(name, 0)
