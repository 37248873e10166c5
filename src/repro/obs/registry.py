"""The metrics registry: named counters, gauges and histograms.

Every subsystem (file systems, cleaner, cache, disk) exports its
metrics here, and the registry is the single source of exported
telemetry.  It is deliberately tiny and dependency-free:

* **Counters** only go up (monotonic); **gauges** hold the latest value;
  **histograms** bucket observations into fixed upper bounds, so export
  size is bounded no matter how many observations arrive.
* A counter may **read back** an integer count a layer keeps anyway (a
  stats-dataclass field or a dict entry) through ``read`` callables: its
  value is their sum over every object registered under its name and
  labels, plus whatever ``inc`` added (merged worker totals).  A reader
  closes over the stats object or dict, never the file system or cache
  that owns it, so a dropped rig is collected.  Floats are not read
  back: per-object sums would reassociate where rigs share a registry.
* Instruments are keyed by ``(name, labels)``.  Callers resolve an
  instrument once (usually in a constructor) and then call ``inc`` /
  ``set`` / ``observe`` on the hot path — lookup cost is paid at
  construction, not per event.
* A **disabled** registry hands out one shared null instrument whose
  methods do nothing (and ignores readers), so instrumented code pays a
  single no-op method call when telemetry is off.
* A per-name **label-cardinality guard** caps how many distinct label
  sets one metric may grow; excess series collapse into a single
  overflow series instead of consuming unbounded memory (the classic
  failure mode of labelling by file name or inode number).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidArgumentError

LabelItems = Tuple[Tuple[str, str], ...]

OVERFLOW_LABELS: LabelItems = (("_overflow", "true"),)
"""Label set that absorbs series beyond the cardinality cap."""

MAX_LABEL_SETS = 64
"""Series per metric name before new label sets collapse into overflow."""

DEFAULT_BYTE_BUCKETS: Tuple[float, ...] = (
    512.0,
    4096.0,
    65536.0,
    1048576.0,
    16777216.0,
)
"""Request/transfer size buckets (bytes); an implicit +inf bucket is
always appended."""

DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    100.0,
)
"""Duration buckets (simulated seconds); implicit +inf appended."""


class Counter:
    """A monotonically increasing value: what ``inc`` added plus the
    current sum of its readers."""

    __slots__ = ("name", "labels", "count", "readers")
    kind = "counter"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.count: float = 0
        self.readers: List[Callable[[], int]] = []

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise InvalidArgumentError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.count += amount

    @property
    def value(self) -> float:
        return self.count + sum(read() for read in self.readers)

    def sample(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def sample(self) -> Dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Observations bucketed by fixed upper bounds.

    ``buckets`` are finite upper bounds in increasing order; a final
    +inf bucket is implicit.  ``counts[i]`` is the number of
    observations ``<= buckets[i]`` exclusive of earlier buckets (i.e.
    plain per-bucket counts, not cumulative).
    """

    __slots__ = ("name", "labels", "buckets", "counts", "total", "count")
    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelItems, buckets: Sequence[float]
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise InvalidArgumentError(f"histogram {name} needs buckets")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise InvalidArgumentError(
                f"histogram {name} buckets must increase: {bounds}"
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # trailing +inf bucket
        self.total: float = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def sample(self) -> Dict[str, Any]:
        return {
            "buckets": [
                [bound, count]
                for bound, count in zip(
                    list(self.buckets) + ["+inf"], self.counts
                )
            ],
            "sum": self.total,
            "count": self.count,
        }


class NullInstrument:
    """Accepts every instrument method as a no-op (disabled telemetry)."""

    __slots__ = ()
    kind = "null"
    name = ""
    labels: LabelItems = ()
    value = 0

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def sample(self) -> Dict[str, Any]:
        return {"value": 0}


NULL_INSTRUMENT = NullInstrument()


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Owns every instrument; the single source of exported metrics."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.dropped_label_sets = 0
        self._instruments: Dict[Tuple[str, LabelItems], Any] = {}
        self._kinds: Dict[str, str] = {}
        self._series_per_name: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Instrument resolution
    # ------------------------------------------------------------------

    def _resolve(self, kind: str, name: str, labels: Dict[str, Any], factory):
        if not self.enabled:
            return NULL_INSTRUMENT
        if not name:
            raise InvalidArgumentError("metric name cannot be empty")
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
        elif known != kind:
            raise InvalidArgumentError(
                f"metric {name!r} already registered as a {known}, "
                f"requested as a {kind}"
            )
        items = _label_items(labels)
        key = (name, items)
        instrument = self._instruments.get(key)
        if instrument is not None:
            return instrument
        if self._series_per_name.get(name, 0) >= MAX_LABEL_SETS:
            # Cardinality guard: collapse into one overflow series.
            self.dropped_label_sets += 1
            key = (name, OVERFLOW_LABELS)
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory(name, OVERFLOW_LABELS)
                self._instruments[key] = instrument
            return instrument
        instrument = factory(name, items)
        self._instruments[key] = instrument
        self._series_per_name[name] = self._series_per_name.get(name, 0) + 1
        return instrument

    def counter(
        self, name: str, read: Optional[Callable[[], int]] = None, **labels: Any
    ) -> Counter:
        """The counter series ``(name, labels)``; ``read``, if given,
        adds a count the caller keeps to it (a read-back series)."""
        instrument = self._resolve("counter", name, labels, Counter)
        if read is not None and self.enabled:
            instrument.readers.append(read)
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._resolve("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BYTE_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._resolve(
            "histogram",
            name,
            labels,
            lambda n, items: Histogram(n, items, buckets),
        )

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------

    def get(
        self, name: str, **labels: Any
    ) -> Optional[Any]:
        """Look up an existing instrument without creating one."""
        return self._instruments.get((name, _label_items(labels)))

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter/gauge series (0 if absent)."""
        instrument = self.get(name, **labels)
        return instrument.value if instrument is not None else 0

    def metric_names(self) -> List[str]:
        return sorted(self._kinds)

    def samples(self) -> Iterator[Dict[str, Any]]:
        """One export record per series, sorted by (name, labels)."""
        for (name, labels), instrument in sorted(self._instruments.items()):
            record: Dict[str, Any] = {
                "name": name,
                "kind": instrument.kind,
                "labels": dict(labels),
            }
            record.update(instrument.sample())
            yield record

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metrics": list(self.samples()),
            "dropped_label_sets": self.dropped_label_sets,
        }

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({len(self._instruments)} series, {state})"
