"""Trade-tape data model, CSV ingestion, and window/lag resolution.

A tape is a uniformly spaced, time-ordered sequence of executed trades.
Each tick carries (time, price, volume, value) with value = price * volume.
Statistics are computed over a window of N consecutive ticks (a "trading
day"); lagged price lookups p(t_i - tau) with tau = epsilon * l read from
the global tape, so a window is only valid when every tick in it has l
ticks of history available.

Windows are addressed by their first tick index (forward indexing).  A
window "k steps back with stride j" is simply the window starting at
``start - k * j``; there is no separate backward-time convention.

Validation
----------
Each invariant has one definition.  :class:`TradeTick` holds the rules of
one tick (finite fields; price, volume and value > 0; value = price *
volume within ``VALUE_REL_TOL``).  :class:`TradeTape` finds the first tick
that breaks any of them with one vector mask and lets that tick's
``TradeTick`` raise, then checks the spacing.  :func:`ingest` only parses.

CSV format
----------
Header ``time,price,volume`` or ``time,price,volume,value``, decimal point
``.``, one tick per row, UTF-8.  Ingestion is strict and names the row of
the fault (the header is row 1).  Faults are reported in this order: the
first row that does not parse (wrong column count, a cell that is not a
finite number), then the first tick that breaks a tick rule, then the
first bad spacing.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyTape,
    InsufficientHistory,
    MalformedRow,
    NonFinite,
    NonPositiveField,
    NonUniformSpacing,
    TapeError,
    ValueMismatch,
    WindowOutOfRange,
)
from .reportio import write_csv_rows

#: Relative tolerance for a supplied value against price * volume.
VALUE_REL_TOL = 1e-9

#: Relative tolerance (in units of epsilon) for uniform tick spacing.
SPACING_REL_TOL = 1e-6

#: CSV columns, which are also the TradeTick fields.
_COLUMNS = ("time", "price", "volume", "value")


def _fault(cls, tick, detail, where=None):
    # A tape error at tick index ``tick``, located as "tick i" unless ``where``
    exc = cls(f"{where or f'tick {tick}'}: {detail}")
    exc.tick, exc.detail = tick, detail
    return exc


@dataclass(frozen=True)
class TradeTick:
    """One market trade: tick position, time, price, volume, and value."""

    index: int
    time: float
    price: float
    volume: float
    value: float

    def __post_init__(self):
        for name in _COLUMNS:
            if not math.isfinite(getattr(self, name)):
                raise _fault(NonFinite, self.index, f"{name} is not finite")
        for name in _COLUMNS[1:]:
            x = getattr(self, name)
            if x <= 0:
                raise _fault(NonPositiveField, self.index, f"{name} must be > 0, got {x!r}")
        product = self.price * self.volume
        if abs(self.value - product) > VALUE_REL_TOL * self.value:
            raise _fault(ValueMismatch, self.index, f"value {self.value!r} != price*volume "
                         f"{product!r} beyond relative {VALUE_REL_TOL:g}")


class TradeTape:
    """Immutable uniformly spaced sequence of trades.

    Field arrays are float64 and read-only; ``tape[i]`` materializes a
    :class:`TradeTick`.  Construction raises what ``TradeTick`` raises for
    the first tick that breaks a tick rule, then checks that consecutive
    times differ by ``epsilon`` within ``SPACING_REL_TOL``.
    """

    __slots__ = ("times", "prices", "volumes", "values", "epsilon")

    def __init__(self, times, prices, volumes, values, epsilon):
        # fresh read-only copies: the tape owns its arrays
        fields = [np.array(x, dtype=np.float64) for x in (times, prices, volumes, values)]
        for arr in fields:
            arr.setflags(write=False)
        self.times, self.prices, self.volumes, self.values = t, p, u, c = fields
        if len(t) == 0:
            raise EmptyTape("tape has no ticks")
        if not (len(p) == len(u) == len(c) == len(t)):
            raise MalformedRow("field arrays have unequal lengths")

        with np.errstate(all="ignore"):  # inf - inf or an overflow only marks its tick
            bad = ~(np.isfinite(t) & np.isfinite(p) & np.isfinite(u) & np.isfinite(c))
            bad |= (p <= 0) | (u <= 0) | (c <= 0) | (np.abs(c - p * u) > VALUE_REL_TOL * c)
        if bad.any():
            self[int(np.argmax(bad))]  # raises: the mask holds TradeTick's rules

        if not (math.isfinite(epsilon) and epsilon > 0):
            raise NonUniformSpacing(f"epsilon must be a positive real, got {epsilon!r}")
        gaps = np.diff(t)
        bad = np.flatnonzero(np.abs(gaps - epsilon) > SPACING_REL_TOL * epsilon)
        if bad.size:
            i = int(bad[0])
            raise _fault(NonUniformSpacing, i + 1,
                         f"spacing {float(gaps[i])!r} != epsilon {epsilon!r}",
                         where=f"ticks {i}->{i + 1}")
        self.epsilon = float(epsilon)

    @classmethod
    def from_arrays(cls, prices, volumes, epsilon=1.0, start_time=0.0, values=None):
        """Build a tape from price/volume arrays; times are derived from
        ``epsilon`` and values from price * volume unless supplied."""
        prices = np.asarray(prices, dtype=np.float64)
        n = prices.shape[0]
        times = start_time + epsilon * np.arange(n, dtype=np.float64)
        volumes = np.asarray(volumes, dtype=np.float64)
        if values is None:
            values = prices * volumes
        return cls(times, prices, volumes, values, epsilon)

    @classmethod
    def from_ticks(cls, ticks, epsilon):
        ticks = list(ticks)
        return cls(*([getattr(t, name) for t in ticks] for name in _COLUMNS), epsilon)

    def __len__(self):
        return self.times.shape[0]

    def __getitem__(self, i) -> TradeTick:
        i = int(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"tick index {i} out of range")
        fields = (self.times, self.prices, self.volumes, self.values)
        return TradeTick(i, *(float(f[i]) for f in fields))

    @property
    def ticks(self):
        return tuple(self[i] for i in range(len(self)))

    def __repr__(self):
        return f"TradeTape(len={len(self)}, epsilon={self.epsilon!r})"


@dataclass(frozen=True)
class WindowSpec:
    """An averaging window of ``count`` consecutive ticks starting at
    tick index ``start`` (a "trading day" of N ticks)."""

    start: int
    count: int

    def __post_init__(self):
        if self.start < 0:
            raise WindowOutOfRange(f"window start must be >= 0, got {self.start}")
        if self.count < 2:
            raise WindowOutOfRange(f"window count must be >= 2, got {self.count}")


@dataclass(frozen=True)
class LagSpec:
    """Return lag tau = epsilon * lag_l and pair shift lambda = epsilon *
    window_shift_j, both integer multiples of the tick spacing."""

    lag_l: int = 1
    window_shift_j: int = 0

    def __post_init__(self):
        if self.lag_l < 1:
            raise ValueError(f"lag_l must be >= 1, got {self.lag_l}")
        if self.window_shift_j < 0:
            raise ValueError(
                f"window_shift_j must be >= 0, got {self.window_shift_j}"
            )


@dataclass(frozen=True)
class ResolvedWindow:
    """A window validated against a tape, with guaranteed lag history.

    Every tick index i in [start, start+count) satisfies i - lag_l >= 0,
    so lagged price lookups stay inside the tape.
    """

    tape: TradeTape
    start: int
    count: int
    lag_l: int

    @property
    def indices(self):
        return np.arange(self.start, self.start + self.count)

    @property
    def prices(self):
        return self.tape.prices[self.start : self.start + self.count]

    @property
    def volumes(self):
        return self.tape.volumes[self.start : self.start + self.count]

    @property
    def values(self):
        return self.tape.values[self.start : self.start + self.count]

    def lagged_prices(self, lag_l=None):
        """Prices p(t_i - tau) for each i in the window, read from the
        global tape."""
        l = self.lag_l if lag_l is None else int(lag_l)
        require_history(self, l)
        lo = self.start - l
        return self.tape.prices[lo : lo + self.count]


def require_history(window: ResolvedWindow, lag_l: int):
    """Raise InsufficientHistory unless every window tick has lag_l ticks
    of history."""
    if lag_l < 1:
        raise ValueError(f"lag_l must be >= 1, got {lag_l}")
    if window.start < lag_l:
        raise InsufficientHistory(
            f"window starting at {window.start} needs {lag_l} ticks of history"
        )


def resolve(tape: TradeTape, window: WindowSpec, lags: LagSpec) -> ResolvedWindow:
    """Resolve a window against a tape and confirm lagged lookups fit.

    Raises WindowOutOfRange when the window does not fit in the tape and
    InsufficientHistory when window.start < lags.lag_l.
    """
    if window.start + window.count > len(tape):
        raise WindowOutOfRange(
            f"window [{window.start}, {window.start + window.count}) exceeds "
            f"tape of {len(tape)} ticks"
        )
    if window.start < lags.lag_l:
        raise InsufficientHistory(
            f"window starting at {window.start} needs {lags.lag_l} ticks of history"
        )
    return ResolvedWindow(
        tape=tape,
        start=window.start,
        count=window.count,
        lag_l=lags.lag_l,
    )


WITH_VALUE = "with_value"
DERIVE_VALUE = "derive_value"


def _reject_cells(cells, row):
    # Raise NonFinite for the first cell of a row that is not a finite number.
    for name, text in zip(_COLUMNS, cells):
        try:
            x = float(text)
        except ValueError:
            raise NonFinite(f"row {row}: {name} {text!r} is not a number") from None
        if not math.isfinite(x):
            raise NonFinite(f"row {row}: {name} {text!r} is not finite")


def ingest(source, value_format=DERIVE_VALUE, epsilon=1.0) -> TradeTape:
    """Read a trade tape from a CSV character stream.

    ``value_format`` selects between deriving values as price * volume
    (``derive_value``) and reading a fourth ``value`` column that is
    checked against price * volume (``with_value``).  Ingest checks the
    header, the column count and that each cell it reads is a finite
    number; every other rule is :class:`TradeTape`'s, whose error it
    re-labels with the 1-based CSV row of the tick.  So the reported fault
    is the first row that does not parse, else the first tick that breaks
    a tick rule, else the first bad spacing.
    """
    if value_format not in (WITH_VALUE, DERIVE_VALUE):
        raise ValueError(f"unknown value_format {value_format!r}")
    lines = iter(source if not isinstance(source, str) else source.splitlines())
    try:
        header = next(lines)
    except StopIteration:
        raise EmptyTape("empty input: missing header") from None
    columns = [c.strip().lower() for c in header.strip().lstrip("\ufeff").split(",")]
    if columns[:3] != ["time", "price", "volume"] or len(columns) > 4:
        raise MalformedRow("row 1: expected header time,price,volume[,value]")
    has_value = len(columns) == 4 and columns[3] == "value"
    if len(columns) == 4 and not has_value:
        raise MalformedRow(f"row 1: fourth column must be 'value', got {columns[3]!r}")
    if value_format == WITH_VALUE and not has_value:
        raise MalformedRow("row 1: with_value requires a value column")

    used = 4 if value_format == WITH_VALUE else 3  # a derived value's cell is not read
    rows, numbers = array("q"), array("d")  # each tick's CSV row, and its cells
    for row, line in enumerate(lines, 2):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        if len(cells) != len(columns):
            raise MalformedRow(
                f"row {row}: expected {len(columns)} columns, got {len(cells)}"
            )
        try:
            xs = [float(x) for x in cells[:used]]
        except ValueError:
            xs = None
        if xs is None or not all(map(math.isfinite, xs)):
            _reject_cells(cells[:used], row)
        numbers.fromlist(xs)
        rows.append(row)
    if not rows:
        raise EmptyTape("no data rows")

    data = np.frombuffer(numbers).reshape(len(rows), used)
    with np.errstate(over="ignore"):  # TradeTape names an infinite value
        values = data[:, 3] if used == 4 else data[:, 1] * data[:, 2]
    try:
        return TradeTape(data[:, 0], data[:, 1], data[:, 2], values, epsilon)
    except TapeError as exc:
        if exc.tick is None:
            raise
        raise _fault(type(exc), exc.tick, exc.detail, where=f"row {rows[exc.tick]}") from None


def write_csv(tape: TradeTape, stream, include_value=True):
    """Serialize a tape in the ingest CSV format with 17-significant-digit
    floats (lossless round trip)."""
    k = 4 if include_value else 3
    fields = (tape.times, tape.prices, tape.volumes, tape.values)[:k]
    write_csv_rows(stream, _COLUMNS[:k], zip(*fields))


def infer_epsilon(text_head: str):
    """Guess the tick spacing from the first two data rows of CSV text."""
    lines = [ln for ln in text_head.splitlines() if ln.strip()]
    if len(lines) < 3:
        return 1.0
    try:
        t0 = float(lines[1].split(",")[0])
        t1 = float(lines[2].split(",")[0])
    except (ValueError, IndexError):
        return 1.0
    gap = t1 - t0
    return gap if math.isfinite(gap) and gap > 0 else 1.0
