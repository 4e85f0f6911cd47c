"""In-memory span recorder for the traced benchmark run.

A span is opened by the benchmark around one call into a public function of
a ``nopanet`` layer.  Spans nest (one thread, one stack); when a span closes
its duration is charged to its parent as child time, so each record carries
its self time = duration - time covered by its children.  Nothing is written
while spans are recorded; ``write_csv_gz`` dumps them once at the end.
"""

from __future__ import annotations

import collections
import csv
import gzip
import time

_now = time.perf_counter


class Span:
    __slots__ = ("tracer", "name", "key", "start", "child")

    def __init__(self, tracer, name, key):
        self.tracer = tracer
        self.name = name
        self.key = key

    def __enter__(self):
        self.child = 0.0
        self.tracer.stack.append(self)
        self.start = _now()
        return self

    def __exit__(self, *exc):
        end = _now()
        tr = self.tracer
        tr.stack.pop()
        dur = end - self.start
        parent = tr.stack[-1].name if tr.stack else ""
        if tr.stack:
            tr.stack[-1].child += dur
        tr.records.append((tr.qid, self.name, self.key, parent, self.start, dur, dur - self.child))
        return False


class Tracer:
    """Span records (qid, name, key, parent, start, duration, self) in memory."""

    def __init__(self):
        self.records: list[tuple] = []
        self.stack: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.qid = -1

    def span(self, name: str, key=None) -> Span:
        return Span(self, name, key)

    def add(self, counter: str, amount=1):
        self.counts[counter] += amount

    def per_name(self):
        """name -> (calls, total self seconds), and (name, key) -> same."""
        by_name: dict = collections.defaultdict(lambda: [0, 0.0])
        by_key: dict = collections.defaultdict(lambda: [0, 0.0])
        for _, name, key, _, _, _, self_s in self.records:
            by_name[name][0] += 1
            by_name[name][1] += self_s
            if key is not None:
                by_key[(name, key)][0] += 1
                by_key[(name, key)][1] += self_s
        return by_name, by_key

    def durations(self, name: str) -> dict:
        """qid -> total duration of the spans called ``name``."""
        out: dict = collections.defaultdict(float)
        for qid, n, _, _, _, dur, _ in self.records:
            if n == name:
                out[qid] += dur
        return out

    def scaling_table(self, bucket_of: dict) -> tuple[list, dict]:
        """Mean self ms per question, by span name and question bucket."""
        sums: dict = collections.defaultdict(float)
        questions = collections.Counter(bucket_of.values())
        for qid, name, _, _, _, _, self_s in self.records:
            if qid in bucket_of:
                sums[(name, bucket_of[qid])] += self_s
        buckets = sorted(questions, key=_bucket_order)
        table = {
            name: {b: 1e3 * sums.get((name, b), 0.0) / questions[b] for b in buckets}
            for name in sorted({name for name, _ in sums})
        }
        return buckets, table

    def write_csv_gz(self, path):
        with gzip.open(path, "wt", newline="") as f:
            w = csv.writer(f)
            w.writerow(["qid", "name", "key", "parent", "start_s", "dur_s", "self_s"])
            t0 = self.records[0][4] if self.records else 0.0
            for qid, name, key, parent, start, dur, self_s in self.records:
                w.writerow(
                    [qid, name, "" if key is None else key, parent,
                     f"{start - t0:.9f}", f"{dur:.9f}", f"{self_s:.9f}"]
                )


def _bucket_order(b):
    digits = "".join(c for c in str(b) if c.isdigit())
    return (int(digits) if digits else 0, str(b))
