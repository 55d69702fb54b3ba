"""Run one skelcube CLI command with timing spans around each layer.

Usage: python traced.py SPANS_JSON -- CLI_ARGS...

The wrappers are installed at the module attribute the *calling* module
looks up (for example `skelcube.manifold.local_profile`, which
`_component_report` reaches through its module globals), so the library
itself is unchanged.  Spans stay in memory as [name, start, end, parent,
value] and are written to SPANS_JSON when the command returns; `value`
is a per-call count (faces scanned, matrix entries, accepted flag).
Start and end are CPU seconds of this process, not wall time: the
harness shares the CPU with this process, and its share is not the
program's time.
The word helpers get no span: they run millions of times per command
and a wrapper would cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _faces_of_first(args, kwargs, result):
    return len(args[0].faces)


def _entries_of_first(args, kwargs, result):
    matrix = args[0]
    return len(matrix) * len(matrix[0]) if matrix else 0


def _accepted(args, kwargs, result):
    return int(result.accepted)


# (module that makes the call, attribute it looks up, span name, per-call value)
TARGETS = (
    ("skelcube.reconstruct", "enumerate_candidates", "reconstruct.enumerate", None),
    ("skelcube.reconstruct", "face_criterion", "reconstruct.criterion", _accepted),
    ("skelcube.reconstruct", "delete", "complex.delete", _faces_of_first),
    ("skelcube.reconstruct", "homology_profile", "homology.profile", None),
    ("skelcube.manifold", "components", "complex.components", None),
    ("skelcube.manifold", "local_profile", "manifold.local_profile", _faces_of_first),
    ("skelcube.manifold", "relative_profile", "homology.relative", None),
    ("skelcube.manifold", "integer_rank", "homology.integer_rank", _entries_of_first),
    ("skelcube.homology", "gf2_rank", "homology.gf2_rank", None),
    ("skelcube.homology", "smith_normal_form", "homology.snf", _entries_of_first),
    ("skelcube.cli", "parse_complex", "io.parse", None),
    ("skelcube.cli", "parse_graph", "io.parse", None),
    ("skelcube.cli", "serialize_complex", "io.serialize", None),
    ("skelcube.cli", "homology_profile", "homology.profile", None),
    ("skelcube.cli", "find_graph_embedding", "embedding.search", None),
)

# lru_cache memos in front of homology_profile, read after the command
MEMOS = (("skelcube.homology", "betti_gf2"), ("skelcube.homology", "homology_integer"))


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.installed: set[str] = set()

    def wrap(self, module_name: str, attr: str, span: str, value) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            return
        spans, stack, clock = self.spans, self.stack, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if value is not None:
                rec[4] = value(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self.installed.add(span)

    def memo_stats(self):
        """(hits, lookups) over the homology memos, None once they are gone."""
        hits = lookups = 0
        for module_name, attr in MEMOS:
            info = getattr(getattr(importlib.import_module(module_name), attr, None), "cache_info", None)
            if info is None:
                return None
            stats = info()
            hits += stats.hits
            lookups += stats.hits + stats.misses
        return hits, lookups


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    rec = Recorder()
    for target in TARGETS:
        rec.wrap(*target)
    cli = importlib.import_module("skelcube.cli")
    code = 2
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(
                {"spans": rec.spans, "installed": sorted(rec.installed), "memo": rec.memo_stats()},
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
