"""In-memory spans and counters around the program's public functions.

:func:`install` replaces each traced function where its caller looks the
name up (a module global or a class attribute) with a wrapper that records a
span (name, start, end, parent) and, for some functions, a counter taken from
the call's arguments or result. Spans live in flat integer arrays and are
written out once, at the end of the run. A layer's self time is its span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import os
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None, span: bool = True) -> None:
        """Replace ``owner.attr``; ``observe(counts, args, kwargs, result)`` runs after the span."""
        orig = getattr(owner, attr)
        counts = self.counts
        if not span:
            def counted(*args, **kwargs):
                counts[name] += 1
                return orig(*args, **kwargs)
            setattr(owner, attr, counted)
            self._patched.append((owner, attr, orig))
            return

        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack, name_col, start_col, end_col, parent_col = (
            self._stack, self.name, self.start, self.end, self.parent)

        def traced(*args, **kwargs):
            idx = len(name_col)
            name_col.append(name_id)
            parent_col.append(stack[-1])
            end_col.append(0)
            stack.append(idx)
            start_col.append(perf_counter_ns())
            try:
                result = orig(*args, **kwargs)
            finally:
                end_col[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ns and self ns."""
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {n: {"calls": int(calls[i]), "ns": float(incl[i]), "self_ns": float(own[i])}
                for i, n in enumerate(self.names)}

    def child_calls(self, child: str, parent: str) -> int:
        """Calls of ``child`` made directly from inside ``parent``."""
        if child not in self._ids or parent not in self._ids:
            return 0
        name = np.frombuffer(self.name, dtype=np.int64)
        par = np.frombuffer(self.parent, dtype=np.int64)
        rows = (name == self._ids[child]) & (par >= 0)
        return int(np.count_nonzero(name[par[rows]] == self._ids[parent]))

    def write(self, directory: Path, rounds: int) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        np.savez(directory / "trace.npz", names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64))
        summary = {"rounds": rounds, "spans": self.totals(), "counters": dict(self.counts)}
        (directory / "trace_summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))


def _detections(counts, args, kwargs, result):
    counts["synth.detections"] += sum(len(fd.detections) for fd in result[1])


def _bytes(counts, args, kwargs, result):
    counts["motfiles.bytes"] += os.path.getsize(args[0])


def _cells(counts, args, kwargs, result):
    rows, cols = args[0].shape
    counts["association.cost_cells"] += rows * cols


def _stages(counts, args, kwargs, result):
    counts["association.stage1_matches"] += len(result.stage_one_matches)
    counts["association.stage2_matches"] += len(result.stage_two_matches)
    counts["association.eligible_dets"] += sum(1 for s in args[3] if s >= kwargs["conf_low"])


def _frequent(counts, args, kwargs, result):
    counts["mesh.frequent_sum"] += len(result)


def _live(counts, args, kwargs, result):
    counts["pipeline.live_sum"] += len(args[0].tracks)


def install() -> Tracer:
    from meshsort import association, kalman, mesh, metrics, motfiles, pipeline, synth, tracks

    tracer = Tracer()
    w = tracer.wrap
    w(synth, "generate", "synth.generate", _detections)
    w(synth.AgentSpec, "box_at", "synth.box_at", span=False)
    for fn in ("write_ground_truth", "write_detections", "write_results"):
        w(motfiles, fn, f"motfiles.{fn}", _bytes)
    for fn in ("parse_ground_truth", "parse_detections", "parse_results"):
        w(motfiles, fn, f"motfiles.{fn}")
    for fn in ("predict", "update", "rollback_velocity"):
        w(kalman, fn, f"kalman.{fn}")
    for fn in ("state_box", "on_matched", "on_missed", "lost_maintain_step",
               "infer_occlusion", "new_track", "iou"):
        w(tracks, fn, f"tracks.{fn}")
    w(pipeline, "two_stage_associate", "association.two_stage_associate", _stages)
    w(association, "assign", "association.assign", _cells)
    w(mesh.MeshGrid, "identify", "mesh.identify", _frequent)
    w(mesh.MeshGrid, "record_lost", "mesh.record_lost")
    w(mesh.MeshGrid, "record_refound", "mesh.record_refound")
    w(pipeline.Tracker, "step", "pipeline.step", _live)
    for fn in ("evaluate", "clear_mot", "idf1", "hota", "iou_matrix", "linear_sum_assignment"):
        w(metrics, fn, f"metrics.{fn}")
    return tracer
