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
volume within ``VALUE_REL_TOL``).  :func:`_check_blocks` finds the first
tick that breaks any of them with vector masks and lets that tick's
``TradeTick`` raise, then checks the spacing; it takes a tape as blocks of
its arrays, so a held :class:`TradeTape` and a tape that ``vawar simulate``
makes a block at a time are checked by the same code.  :func:`ingest` only
parses.
Every count (lag, shift, stride, moment order, window coordinate) obeys
:func:`integral`: an int, numpy integer or whole float is stored as an
``int``, and anything else (1.5, NaN, "2", True) raises naming the
argument.  Each spec and entry point applies it once.

CSV format
----------
Header ``time,price,volume`` or ``time,price,volume,value``, decimal point
``.``, one tick per row, UTF-8.  Lines end where ``str.splitlines`` ends
them (``\\n``, ``\\r\\n``, ``\\r`` and the other Unicode line boundaries),
in text and in an open file alike, and a line of only whitespace is
skipped but keeps its row number.
Ingestion is strict and names the row of the fault (the header is row 1).
Faults are reported in this order: the first row that does not parse
(wrong column count, a cell that is not a finite number), then the first
tick that breaks a tick rule, then the first bad spacing.

:func:`ingest` takes the lines of a tape ``_CHUNK`` (256) at a time, so
only the tape's arrays grow with its length.  ``float`` defines a cell,
but a block's data rows are parsed by one C call, ``np.loadtxt``, which
also checks their column count; the numbers it reads are checked for
finite values once.  Where that parse fails or could read a cell
otherwise than ``float``, the block's rows are walked with ``float``,
which reads the cells the C parser rejects (``1_0``, Arabic-Indic
digits) or names the first row at fault.  Both parsers round with
CPython's ``PyOS_string_to_double``, so a number has the same bits
whichever read it.

Memory
------
A command holds a tape's four float64 arrays about once, plus a block of
working memory; ``vawar simulate`` holds one block of the tape.  The
tape's checks, :func:`write_csv` and ``synth`` take ``_TICKS`` (4096)
ticks at a time.  The checks make one pass, with about 0.1 MB of
temporaries on any tape (tracemalloc): the tick rules of each block, and
its gaps from the last time of the block before; the first bad gap is
raised only once every tick has passed the tick rules.  :func:`ingest`
appends each parsed block to one growing ``array("d")`` per column and
views those buffers as the tape's arrays; a viewed buffer can no longer
grow.  The arrays that vawar makes itself (ingest's columns, the times
and values that ``from_arrays`` derives, ``synth.generate``'s series)
reach the tape through ``TradeTape._own``, which keeps them without a
copy; the public constructor and ``from_arrays`` copy the caller's
arrays.  On a 200k-tick tape (6.4 MB of arrays) ``ingest`` peaks at about
1.15 times the arrays and ``write_csv`` at about 0.4 MB beyond them
(tracemalloc).
"""

from __future__ import annotations

import io
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import chain, compress, count, islice

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
from .reportio import _CHUNK, write_csv_rows

#: Relative tolerance for a supplied value against price * volume.
VALUE_REL_TOL = 1e-9

#: Relative tolerance (in units of epsilon) for uniform tick spacing.
SPACING_REL_TOL = 1e-6

#: CSV columns, which are also the TradeTick fields.
_COLUMNS = ("time", "price", "volume", "value")

#: Ticks per block of the tape's checks, ``write_csv`` and ``synth``; a
#: multiple of the writer's chunk, so the chunks are the whole table's.
_TICKS = 16 * _CHUNK


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


def _broken_ticks(t, p, u, c):
    # the mask of the ticks of (time, price, volume, value) arrays that
    # break a TradeTick rule
    with np.errstate(all="ignore"):  # inf - inf or an overflow only marks its tick
        bad = ~(np.isfinite(t) & np.isfinite(p) & np.isfinite(u) & np.isfinite(c))
        bad |= (p <= 0) | (u <= 0) | (c <= 0) | (np.abs(c - p * u) > VALUE_REL_TOL * c)
    return bad


def _first_bad_gap(t, first, epsilon):
    # (i, its length) of the first gap from a tick i to i + 1 that is not
    # epsilon within SPACING_REL_TOL, of times t of which t[0] is tick
    # ``first``; None where there is none
    with np.errstate(all="ignore"):  # epsilon is checked after the tick rules
        gaps = np.diff(t)
        at = np.flatnonzero(np.abs(gaps - epsilon) > SPACING_REL_TOL * epsilon)
    return (first + int(at[0]), float(gaps[at[0]])) if at.size else None


def _check_blocks(blocks, epsilon):
    """Raise the first fault of the tape whose (times, prices, volumes,
    values) arrays come as ``blocks`` in tape order: what ``TradeTick``
    raises for the first tick of the tape that breaks a tick rule, else a
    bad ``epsilon``, else the first gap that is not ``epsilon`` within
    ``SPACING_REL_TOL``.  It takes each block once, so a tape can be
    checked a block at a time as it is made; the first bad gap waits for
    the tick rules of the ticks after it."""
    gap = None  # the first bad gap: (its first tick, its length)
    lo, last = 0, None  # the first tick of the block; the time before it
    for t, p, u, c in blocks:
        bad = _broken_ticks(t, p, u, c)
        if bad.any():
            i = int(np.argmax(bad))
            TradeTick(lo + i, *(float(x[i]) for x in (t, p, u, c)))  # raises
        if gap is None and last is not None:  # the gap from the block before
            gap = _first_bad_gap(np.array([last, t[0]]), lo - 1, epsilon)
        if gap is None:
            gap = _first_bad_gap(t, lo, epsilon)
        lo, last = lo + len(t), t[-1]
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise NonUniformSpacing(f"epsilon must be a positive real, got {epsilon!r}")
    if gap is not None:
        i, length = gap
        raise _fault(NonUniformSpacing, i + 1, f"spacing {length!r} != epsilon {epsilon!r}",
                     where=f"ticks {i}->{i + 1}")


class TradeTape:
    """Immutable uniformly spaced sequence of trades.

    Field arrays are float64 and read-only; ``tape[i]`` materializes a
    :class:`TradeTick`.  Construction copies the arrays given, raises what
    ``TradeTick`` raises for the first tick that breaks a tick rule, then
    checks that consecutive times differ by ``epsilon`` within
    ``SPACING_REL_TOL``, ``_TICKS`` ticks at a time (:func:`_check_blocks`).
    """

    __slots__ = ("times", "prices", "volumes", "values", "epsilon")

    def __init__(self, times, prices, volumes, values, epsilon):
        # fresh copies: the tape owns its arrays
        self._hold(*(np.array(x, dtype=np.float64) for x in (times, prices, volumes, values)),
                   epsilon)

    @classmethod
    def _own(cls, times, prices, volumes, values, epsilon):
        """The tape of float64 arrays that no one else holds, kept as they
        are, without a copy; checked as the public constructor checks."""
        tape = cls.__new__(cls)
        tape._hold(times, prices, volumes, values, epsilon)
        return tape

    def _hold(self, times, prices, volumes, values, epsilon):
        fields = times, prices, volumes, values
        for arr in fields:
            arr.setflags(write=False)
        self.times, self.prices, self.volumes, self.values = t, p, u, c = fields
        if len(t) == 0:
            raise EmptyTape("tape has no ticks")
        if not (len(p) == len(u) == len(c) == len(t)):
            raise MalformedRow("field arrays have unequal lengths")
        _check_blocks(self._blocks(), epsilon)
        self.epsilon = float(epsilon)

    def _blocks(self):
        # the tape's (times, prices, volumes, values), _TICKS ticks at a time
        fields = self.times, self.prices, self.volumes, self.values
        return (tuple(x[lo:lo + _TICKS] for x in fields) for lo in range(0, len(self), _TICKS))

    @classmethod
    def from_arrays(cls, prices, volumes, epsilon=1.0, start_time=0.0, values=None):
        """Build a tape from copies of price/volume arrays; times are
        derived from ``epsilon`` and values from price * volume unless
        supplied."""
        prices, volumes = (np.array(x, dtype=np.float64) for x in (prices, volumes))
        values = prices * volumes if values is None else np.array(values, dtype=np.float64)
        times = np.arange(prices.shape[0], dtype=np.float64)
        times *= epsilon
        times += start_time
        return cls._own(times, prices, volumes, values, epsilon)

    def __len__(self):
        return self.times.shape[0]

    def __getitem__(self, i) -> TradeTick:
        i = operator.index(i)
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


def integral(name, x, lo, error=ValueError):
    """``x`` as an ``int`` when it is a whole number >= ``lo``: an int, a
    numpy integer or a float equal to an int.  Anything else raises
    ``error`` naming the argument ``name``."""
    if not (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            or isinstance(x, (float, np.floating)) and float(x).is_integer()):
        raise error(f"{name} must be an integer, got {x!r}")
    x = int(x)
    if x < lo:
        raise error(f"{name} must be >= {lo}, got {x}")
    return x


@dataclass(frozen=True)
class WindowSpec:
    """An averaging window of ``count`` consecutive ticks starting at
    tick index ``start`` (a "trading day" of N ticks)."""

    start: int
    count: int

    def __post_init__(self):
        object.__setattr__(self, "start", integral("window start", self.start, 0, WindowOutOfRange))
        object.__setattr__(self, "count", integral("window count", self.count, 2, WindowOutOfRange))


@dataclass(frozen=True)
class LagSpec:
    """Return lag tau = epsilon * lag_l and pair shift lambda = epsilon *
    window_shift_j, both integer multiples of the tick spacing."""

    lag_l: int = 1
    window_shift_j: int = 0

    def __post_init__(self):
        for name, lo in (("lag_l", 1), ("window_shift_j", 0)):
            object.__setattr__(self, name, integral(name, getattr(self, name), lo))


@dataclass(frozen=True)
class ResolvedWindow:
    """A window validated against a tape, with guaranteed lag history.

    Construction raises WindowOutOfRange unless the window fits in the
    tape, and what :func:`require_history` raises for ``lag_l``; so every
    tick index i in [start, start+count) satisfies i - lag_l >= 0.
    """

    tape: TradeTape
    start: int
    count: int
    lag_l: int

    def __post_init__(self):
        if self.start + self.count > len(self.tape):
            raise WindowOutOfRange(f"window [{self.start}, {self.start + self.count}) exceeds "
                                   f"tape of {len(self.tape)} ticks")
        object.__setattr__(self, "lag_l", require_history(self, self.lag_l))

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
        global tape; a lag given here is checked, the window's own is not."""
        l = self.lag_l if lag_l is None else require_history(self, lag_l)
        lo = self.start - l
        return self.tape.prices[lo : lo + self.count]


def require_history(window: ResolvedWindow, lag_l):
    """lag_l as an ``int``; raise ValueError unless it is a whole number
    >= 1, and InsufficientHistory unless every window tick has lag_l ticks
    of history."""
    lag_l = integral("lag_l", lag_l, 1)
    if window.start < lag_l:
        raise InsufficientHistory(
            f"window starting at {window.start} needs {lag_l} ticks of history"
        )
    return lag_l


def resolve(tape: TradeTape, window: WindowSpec, lags: LagSpec) -> ResolvedWindow:
    """Resolve a window against a tape and confirm lagged lookups fit
    (raises what :class:`ResolvedWindow` raises)."""
    return ResolvedWindow(tape, window.start, window.count, lags.lag_l)


WITH_VALUE = "with_value"
DERIVE_VALUE = "derive_value"


#: The ASCII separators, which numpy's parser strips from a cell as white
#: space and ``float`` does not.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _parse_block(body, width, used):
    """The (rows, width) numbers of ``body``, a block's stripped data rows,
    from one C parse; None where that parse fails or could read otherwise
    than :func:`_walk_rows`: a column count other than ``width``, a
    non-finite number in the first ``used`` columns, or a separator in the
    text."""
    if any(map("".join(body).__contains__, _SEPARATORS)):
        return None
    try:
        numbers = np.loadtxt(body, np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if numbers.shape != (len(body), width) or not np.isfinite(numbers[:, :used]).all():
        return None
    return numbers


def _walk_rows(lines, width, used, first_row):
    """The numbers of the first ``used`` cells of each row of ``lines``,
    stripped lines of which the first is CSV row ``first_row``, as ``float``
    reads them; the definition of a cell.  Raise the fault of the first row
    at fault instead: a column count other than ``width``, or a used cell
    that is not a finite number."""
    numbers = array("d")
    for row, line in enumerate(lines, first_row):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise MalformedRow(f"row {row}: expected {width} columns, got {len(cells)}")
        for name, text in zip(_COLUMNS, cells[:used]):
            try:
                x = float(text)
            except ValueError:
                raise NonFinite(f"row {row}: {name} {text!r} is not a number") from None
            if not math.isfinite(x):
                raise NonFinite(f"row {row}: {name} {text!r} is not finite")
            numbers.append(x)
    return np.frombuffer(numbers, np.float64).reshape(-1, used)


def _row_of(tick, blanks):
    # The CSV row of data tick ``tick``, given the ascending rows of the
    # blank lines after the header
    row = tick + 2
    for blank in blanks:
        if blank > row:
            break
        row += 1
    return row


def _lines(fh):
    """The lines of the rest of an open text file, as ``str.splitlines``
    breaks its text: ``_CHUNK`` lines of the file at a time, joined and
    split as one string.  A file opened with ``newline`` None, ``""``,
    ``"\\n"`` or ``"\\r\\n"`` never ends a line between the ``\\r`` and
    ``\\n`` of a pair, so the lines of each run end where the text's do."""
    runs = iter(lambda: "".join(islice(fh, _CHUNK)), "")
    return chain.from_iterable(map(str.splitlines, runs))


def ingest(source, value_format=DERIVE_VALUE, epsilon=1.0) -> TradeTape:
    """Read a trade tape from CSV text, an open text file, or an iterable
    of its lines already split.

    ``value_format`` selects between deriving values as price * volume
    (``derive_value``) and reading a fourth ``value`` column that is
    checked against price * volume (``with_value``).  Ingest checks the
    header, the column count and that each cell it reads is a finite
    number; every other rule is :class:`TradeTape`'s, whose error it
    re-labels with the 1-based CSV row of the tick.  So the reported fault
    is the first row that does not parse, else the first tick that breaks
    a tick rule, else the first bad spacing.

    Text is split by ``str.splitlines`` and an open file
    (``io.TextIOBase``) by :func:`_lines`, so a file reads as its text.
    The lines after the header are taken ``_CHUNK`` at a time, and nothing
    but the parsed numbers and the rows of blank lines outlives its block.
    In a block, a line that strips to nothing is skipped, and
    :func:`_parse_block` reads the rest in one ``np.loadtxt`` call.  Where it cannot vouch for its numbers,
    :func:`_walk_rows` reads the block a cell at a time with ``float``,
    the definition of a cell: it returns the numbers where every row
    parses and raises the first row's fault otherwise.  A derived value's
    cell is never read.  Each block's numbers are appended to one growing
    buffer per column, and the tape keeps read-only views of those
    buffers: nothing is joined or copied after the last block.
    """
    if value_format not in (WITH_VALUE, DERIVE_VALUE):
        raise ValueError(f"unknown value_format {value_format!r}")
    if isinstance(source, io.TextIOBase):
        source = _lines(source)
    lines = iter(source.splitlines() if isinstance(source, str) else source)
    header = next(lines, None)
    if header is None:
        raise EmptyTape("empty input: missing header")
    columns = [c.strip().lower() for c in header.strip().lstrip("\ufeff").split(",")]
    if columns[:3] != ["time", "price", "volume"] or len(columns) > 4:
        raise MalformedRow("row 1: expected header time,price,volume[,value]")
    has_value = len(columns) == 4 and columns[3] == "value"
    if len(columns) == 4 and not has_value:
        raise MalformedRow(f"row 1: fourth column must be 'value', got {columns[3]!r}")
    if value_format == WITH_VALUE and not has_value:
        raise MalformedRow("row 1: with_value requires a value column")

    width = len(columns)
    used = 4 if value_format == WITH_VALUE else 3  # a derived value's cell is not read
    fields, blanks = [array("d") for _ in range(used)], []  # each column; the blank rows
    for first_row in count(2, _CHUNK):
        block = list(map(str.strip, islice(lines, _CHUNK)))
        if not block:
            break
        body = list(filter(None, block))  # the block's data rows
        if len(body) < len(block):
            blanks.extend(compress(count(first_row), map(operator.not_, block)))
            if not body:
                continue
        numbers = _parse_block(body, width, used)
        if numbers is None:
            numbers = _walk_rows(block, width, used, first_row)
        for column, x in zip(fields, numbers.T):
            column.frombytes(x.tobytes())
    if not fields[0]:
        raise EmptyTape("no data rows")
    fields = [np.frombuffer(column, np.float64) for column in fields]
    if used == 3:
        with np.errstate(over="ignore"):  # TradeTape names an infinite value
            fields.append(fields[1] * fields[2])
    try:
        return TradeTape._own(*fields, epsilon)
    except TapeError as exc:
        if exc.tick is None:
            raise
        raise _fault(type(exc), exc.tick, exc.detail,
                     where=f"row {_row_of(exc.tick, blanks)}") from None


def write_csv(tape: TradeTape, stream, include_value=True):
    """Serialize a tape in the ingest CSV format with 17-significant-digit
    floats (lossless round trip), ``_TICKS`` rows at a time: the only copy
    of the tape's numbers is one block of rows."""
    _write_blocks(stream, tape._blocks(), include_value)


def _write_blocks(stream, blocks, include_value=True):
    # write_csv of the tape whose (times, prices, volumes, values) come as
    # blocks, each written before the next is taken
    k = 4 if include_value else 3
    write_csv_rows(stream, _COLUMNS[:k], (np.column_stack(block[:k]) for block in blocks))


def infer_epsilon(lines):
    """Guess the tick spacing from the first two data rows of CSV text or
    of its lines."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    head = list(islice(filter(str.strip, lines), 3))  # the header and two rows
    if len(head) < 3:
        return 1.0
    try:
        t0 = float(head[1].split(",")[0])
        t1 = float(head[2].split(",")[0])
    except (ValueError, IndexError):
        return 1.0
    gap = t1 - t0
    return gap if math.isfinite(gap) and gap > 0 else 1.0
