"""Inputs, statistics and output checks shared by the chart-search workloads."""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Checkout root (parent of this package).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for snapshots, the fixture cache, span dumps and results.
WORK = Path(__file__).resolve().parent / ".work"

TOP_K = 10
NUM_CLUSTERS = 16
#: Columns per corpus table, hence series per query chart, range over 1..3.
MAX_SERIES = 3
#: Samples a tail percentile needs beyond it before it may be reported.
MIN_BEYOND = 10
#: Exact-score tolerance of streamed-vs-rebuilt rankings (float64 runs).
PARITY_TOL = 1e-8
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``append_tail_ms`` is this quantile of append latency.
APPEND_TAIL = 0.95
#: The append probe that gives the query workloads their append metrics:
#: 32-row batches, round-robin over fresh streams.  An in-process append takes
#: ~3 ms, so the probe sends 1792, which spreads it over ~5 s of the host's
#: speed changes; over HTTP each keep-alive append stalls ~45 ms, so it sends
#: 224.
PROBE_STREAMS = 4
PROBE_BATCHES_INPROC = 1792
PROBE_BATCHES_HTTP = 224

_TABLE_INDEX = re.compile(r"^synth_(\d+)$")


def add_repo_paths() -> None:
    """Make ``repro`` (``src/``) and ``provenance`` (``benchmarks/``) importable.

    Raises ``FileNotFoundError`` when the checkout has no program to measure.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {src}")
    for path in (str(src), str(ROOT / "benchmarks")):
        if path not in sys.path:
            sys.path.insert(0, path)
    # The fixture checkpoint is cached inside the benchmark's own directory.
    os.environ.setdefault("REPRO_FIXTURE_DIR", str(WORK / "fixtures"))


def load_model():
    """The trained sweep fixture (trains and caches it on first use)."""
    from repro.bench.fixture import trained_fixture_model
    from test_scale_sweep import SWEEP_FCM

    return trained_fixture_model(SWEEP_FCM)


def corpus_config(num_tables: int, seed: int):
    """The scale-sweep corpus recipe under this run's seed."""
    from repro.data import SynthConfig

    return SynthConfig(
        num_tables=num_tables,
        num_rows=256,
        max_columns=MAX_SERIES,
        num_clusters=NUM_CLUSTERS,
        seed=seed,
    )


def table_cluster(table_id: str) -> Optional[int]:
    """Synthetic cluster of a corpus table id; ``None`` for any other id."""
    match = _TABLE_INDEX.match(table_id)
    return int(match.group(1)) % NUM_CLUSTERS if match else None


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def min_samples(q: float) -> int:
    """Smallest sample count leaving :data:`MIN_BEYOND` samples beyond ``q``."""
    return math.ceil(round(MIN_BEYOND / (1.0 - q), 9))


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile; refuses a tail with fewer than ten samples beyond."""
    if q > 0.5 and len(samples) < min_samples(q):
        raise TooFewSamples(
            f"p{100 * q:g} needs {min_samples(q)} samples, got {len(samples)}"
        )
    if not samples:
        raise TooFewSamples("no samples")
    return float(np.quantile(np.asarray(samples, dtype=np.float64), q))


def tail_or_fail(samples: Sequence[float], q: float, outcome: "Outcome", what: str) -> float:
    """:func:`percentile`, or a failed check when the sample is too small."""
    try:
        return percentile(samples, q)
    except TooFewSamples as exc:
        outcome.fail(f"{what}: {exc}")
        return max(samples, default=0.0)


def tail_note(samples: Sequence[float], q: float) -> str:
    """A latency tail for the run report, or why the sample cannot give it."""
    try:
        return f"p{100 * q:g} = {1e3 * percentile(samples, q):.3f} ms over {len(samples)}"
    except TooFewSamples as exc:
        return str(exc)


def vm_hwm_mb() -> float:
    """Peak resident set (``VmHWM``) of this process, in MiB."""
    status = Path("/proc/self/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc status")


def snapshot_mb(path: Path) -> float:
    """Base archive plus sidecars of a v2 snapshot, in MiB."""
    return sum(
        p.stat().st_size for p in path.parent.glob(path.stem + "*")
        if p.suffix in (".npz", ".npy")
    ) / 2**20


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def ranking_problem(
    ranking: Sequence[Tuple[str, float]], k: int, scored: int, known_ids: Iterable[str]
) -> Optional[str]:
    """Why a ranking is malformed, or ``None``.

    It must hold ``min(k, scored)`` distinct corpus ids with finite scores,
    best first, where ``scored`` is how many candidates the query verified.
    A ranking shorter than ``k`` is not malformed when pruning left fewer
    than ``k`` candidates; the workloads count those as ``full_ranking_ratio``
    misses instead.
    """
    expected = min(k, scored)
    if len(ranking) != expected:
        return f"ranking has {len(ranking)} entries, expected {expected}"
    ids = [table_id for table_id, _ in ranking]
    if len(set(ids)) != len(ids):
        return "ranking repeats a table id"
    known = known_ids if isinstance(known_ids, (set, frozenset)) else set(known_ids)
    unknown = [table_id for table_id in ids if table_id not in known]
    if unknown:
        return f"ranking names unknown ids {unknown[:3]}"
    scores = [float(score) for _, score in ranking]
    if not all(math.isfinite(score) for score in scores):
        return "ranking has a non-finite score"
    if any(a < b for a, b in zip(scores, scores[1:])):
        return "ranking is not sorted by score"
    return None


def same_cluster_share(query_cluster: int, ranking: Sequence[Tuple[str, float]]) -> float:
    """Share of a top-k ranking drawn from the query's own synthetic cluster."""
    if not ranking:
        return 0.0
    return sum(table_cluster(t) == query_cluster for t, _ in ranking) / len(ranking)


def recall(got: Sequence[Tuple[str, float]], exact: Sequence[Tuple[str, float]]) -> float:
    """Top-k overlap of a served ranking with the exhaustive exact one."""
    exact_ids = {t for t, _ in exact}
    return len(exact_ids & {t for t, _ in got}) / max(len(exact_ids), 1)


@dataclass
class Outcome:
    """What one run attempted, what failed and why, and what it measured."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, problem: Optional[str]) -> bool:
        """Count one checked operation; record it as failed when ``problem``."""
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)
        return False

    def fail(self, problem: str) -> None:
        self.check(problem)


class SeriesStrata:
    """Corpus table indices in a seeded order, drawn by series count.

    A query chart plots every column of its table, and render, query
    preparation and verification all cost more per extra series, so the
    workloads fix the mix of 1-, 2- and 3-series charts and let the seed
    pick only which tables fill it.
    """

    def __init__(self, corpus, seed: int, salt: int) -> None:
        self._corpus = corpus
        self._order = iter(np.random.default_rng((seed, salt)).permutation(corpus.num_tables))
        self._spare: Dict[int, List[int]] = {}

    def take(self, series: int) -> int:
        """The next table index whose chart has ``series`` series."""
        from repro.data import synth_table

        while not self._spare.get(series):
            index = int(next(self._order))
            self._spare.setdefault(synth_table(index, self._corpus).num_columns, []).append(index)
        return self._spare[series].pop(0)

    def cycle(self) -> Iterator[int]:
        """Indices whose series counts run 1, 2, 3, 1, 2, 3, ..."""
        n = 0
        while True:
            yield self.take(1 + n % MAX_SERIES)
            n += 1


def stream_batch(seed: int, stream: int, batch: int, rows: int = 32) -> Dict[str, List[float]]:
    """Deterministic 2-column rows for one append batch of one stream."""
    rng = np.random.default_rng((seed, 0x57E, stream, batch))
    t = np.arange(batch * rows, (batch + 1) * rows, dtype=np.float64)
    phase = (stream % 7) * 0.9
    a = np.sin(t / 23.0 + phase) + 0.05 * rng.normal(size=rows)
    b = 0.5 * np.cos(t / 41.0 + phase) + 0.05 * rng.normal(size=rows) + 1.0
    return {"a": a.tolist(), "b": b.tolist()}


def provenance(seed: int, extra: Optional[Dict] = None) -> Dict:
    """The repository's provenance stamp plus this run's seed."""
    from provenance import provenance_stamp

    # git must not look for a repository above the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    stamp = provenance_stamp()
    stamp["seed"] = int(seed)
    stamp.update(extra or {})
    return stamp
