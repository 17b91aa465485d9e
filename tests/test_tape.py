import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vawar.tape
from vawar.cli import _load_tape, build_parser
from vawar.errors import (
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
from vawar.synth import GenConfig, generate
from vawar.tape import (
    DERIVE_VALUE,
    WITH_VALUE,
    LagSpec,
    TradeTape,
    TradeTick,
    WindowSpec,
    infer_epsilon,
    ingest,
    resolve,
    write_csv,
)

from conftest import FIXTURE_CSV, budget
from helpers import old_check_tape, old_ingest

FIELDS = ("times", "prices", "volumes", "values")


class TestIngest:
    def test_derive_value(self):
        tape = ingest(FIXTURE_CSV, DERIVE_VALUE, epsilon=1.0)
        assert len(tape) == 4
        assert tape.values.tolist() == [20.0, 10.0, 40.0, 10.0]

    def test_zero_volume_rejected(self):
        csv = "time,price,volume\n0,2,10\n1,2,0\n"
        with pytest.raises(NonPositiveField, match="row 3"):
            ingest(csv, DERIVE_VALUE, epsilon=1.0)

    def test_supplied_value_mismatch(self):
        csv = "time,price,volume,value\n0,2,10,19.9\n"
        with pytest.raises(ValueMismatch, match="row 2"):
            ingest(csv, WITH_VALUE, epsilon=1.0)

    def test_supplied_value_within_tolerance(self):
        csv = "time,price,volume,value\n0,2,10,20\n1,2,5,10\n"
        tape = ingest(csv, WITH_VALUE, epsilon=1.0)
        assert tape.values.tolist() == [20.0, 10.0]

    def test_derive_ignores_value_column(self):
        csv = "time,price,volume,value\n0,2,10,19.9\n1,2,5,10\n"
        tape = ingest(csv, DERIVE_VALUE, epsilon=1.0)
        assert tape.values.tolist() == [20.0, 10.0]

    def test_nonuniform_spacing(self):
        csv = "time,price,volume\n0,2,10\n1,2,5\n2.5,4,10\n"
        with pytest.raises(NonUniformSpacing, match="row 4"):
            ingest(csv, DERIVE_VALUE, epsilon=1.0)

    def test_empty(self):
        with pytest.raises(EmptyTape):
            ingest("time,price,volume\n", DERIVE_VALUE, epsilon=1.0)
        with pytest.raises(EmptyTape):
            ingest("", DERIVE_VALUE, epsilon=1.0)

    def test_bad_header(self):
        with pytest.raises(MalformedRow, match="row 1"):
            ingest("price,volume\n1,2\n", DERIVE_VALUE, epsilon=1.0)

    def test_with_value_needs_column(self):
        with pytest.raises(MalformedRow):
            ingest(FIXTURE_CSV, WITH_VALUE, epsilon=1.0)

    def test_unparsable_cell(self):
        csv = "time,price,volume\n0,2,10\n1,abc,5\n"
        with pytest.raises(NonFinite, match="row 3"):
            ingest(csv, DERIVE_VALUE, epsilon=1.0)

    def test_wrong_column_count(self):
        csv = "time,price,volume\n0,2,10\n1,2\n"
        with pytest.raises(MalformedRow, match="row 3"):
            ingest(csv, DERIVE_VALUE, epsilon=1.0)

    @pytest.mark.parametrize("csv, value_format, error, message", [
        ("time,price,volume\n0,2,10\n1,2,0\n", DERIVE_VALUE, NonPositiveField,
         "row 3: volume must be > 0, got 0.0"),
        ("time,price,volume,value\n0,2,10,19.9\n", WITH_VALUE, ValueMismatch,
         "row 2: value 19.9 != price*volume 20.0 beyond relative 1e-09"),
        ("time,price,volume\n0,2,10\n1,2,5\n2.5,4,10\n", DERIVE_VALUE, NonUniformSpacing,
         "row 4: spacing 1.5 != epsilon 1.0"),
        # a blank line still counts as a row
        ("time,price,volume\n0,2,10\n\n1,2,5\n2.5,4,10\n", DERIVE_VALUE, NonUniformSpacing,
         "row 5: spacing 1.5 != epsilon 1.0"),
        ("time,price,volume\n0,2,10\n1,abc,5\n", DERIVE_VALUE, NonFinite,
         "row 3: price 'abc' is not a number"),
        ("time,price,volume\n0,2,10\n1,2,inf\n", DERIVE_VALUE, NonFinite,
         "row 3: volume 'inf' is not finite"),
        ("time,price,volume\n0,2,10\n1,2\n", DERIVE_VALUE, MalformedRow,
         "row 3: expected 3 columns, got 2"),
        ("time,price,volume\n", DERIVE_VALUE, EmptyTape, "no data rows"),
        ("", DERIVE_VALUE, EmptyTape, "empty input: missing header"),
    ])
    def test_single_fault_messages(self, csv, value_format, error, message):
        with pytest.raises(error) as info:
            ingest(csv, value_format, epsilon=1.0)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("rows, error, message", [
        # a parse fault on a later row comes before a tick-rule fault
        (["0,-2,10", "1,2,5", "2,2,x"], NonFinite, "row 4: volume 'x' is not a number"),
        (["0,-2,10", "1,2,5", "2,2"], MalformedRow, "row 4: expected 3 columns, got 2"),
        # parse faults among themselves, and tick-rule faults, go by row
        (["0,2,nan", "1,2"], NonFinite, "row 2: volume 'nan' is not finite"),
        (["0,2,10", "1,2,0", "2,-1,5"], NonPositiveField, "row 3: volume must be > 0, got 0.0"),
        # a tick-rule fault on a later row comes before a bad spacing
        (["0,2,10", "5,2,5", "6,2,0"], NonPositiveField, "row 4: volume must be > 0, got 0.0"),
    ])
    def test_fault_order(self, rows, error, message):
        csv = "time,price,volume\n" + "\n".join(rows) + "\n"
        with pytest.raises(error) as info:
            ingest(csv, DERIVE_VALUE, epsilon=1.0)
        assert str(info.value) == message

    def test_error_keeps_tick_index(self):
        csv = "time,price,volume\n\n0,2,10\n\n1,2,-5\n"
        with pytest.raises(NonPositiveField) as info:
            ingest(csv, DERIVE_VALUE, epsilon=1.0)
        assert str(info.value) == "row 5: volume must be > 0, got -5.0"
        assert (info.value.tick, info.value.detail) == (1, "volume must be > 0, got -5.0")

    def test_stream_input(self):
        tape = ingest(io.StringIO(FIXTURE_CSV), DERIVE_VALUE, epsilon=1.0)
        assert len(tape) == 4

    def test_ingested_arrays_cannot_change(self):
        tape = ingest(FIXTURE_CSV, DERIVE_VALUE)
        for field in FIELDS:
            with pytest.raises(ValueError):
                getattr(tape, field)[0] = 99.0
        # the buffer a parsed column grew in is viewed, so it cannot grow
        with pytest.raises(BufferError):
            tape.prices.base.obj.append(1.0)
        assert tape.prices.tolist() == [2.0, 2.0, 4.0, 2.0]

    def test_roundtrip_bit_for_bit(self):
        rng = np.random.default_rng(42)
        prices = np.exp(rng.normal(0, 0.3, 50)) * 37.1234567890123
        volumes = np.exp(rng.normal(0, 1.0, 50)) * 12345.6789
        original = TradeTape.from_arrays(prices, volumes, epsilon=0.5)
        buf = io.StringIO()
        write_csv(original, buf)
        again = ingest(buf.getvalue(), WITH_VALUE, epsilon=0.5)
        for field in ("times", "prices", "volumes", "values"):
            assert getattr(original, field).tolist() == getattr(again, field).tolist()

    def test_roundtrip_without_value_bit_for_bit(self):
        rng = np.random.default_rng(43)
        prices = np.exp(rng.normal(0, 0.3, 50)) * 37.1234567890123
        volumes = np.exp(rng.normal(0, 1.0, 50)) * 12345.6789
        original = TradeTape.from_arrays(prices, volumes, epsilon=0.5, start_time=3.25)
        buf = io.StringIO()
        write_csv(original, buf, include_value=False)
        text = buf.getvalue()
        assert text.startswith("time,price,volume\n")
        assert {line.count(",") for line in text.splitlines()} == {2}
        again = ingest(text, DERIVE_VALUE, epsilon=0.5)
        for field in ("times", "prices", "volumes", "values"):
            assert getattr(original, field).tolist() == getattr(again, field).tolist()

    def test_derive_never_parses_value_cell(self):
        tape = ingest("time,price,volume,value\n0,2,10,abc\n", DERIVE_VALUE, epsilon=1.0)
        assert tape.values.tolist() == [20.0]

    @pytest.mark.parametrize("value_format", [DERIVE_VALUE, WITH_VALUE])
    def test_crlf_reads_as_lf(self, value_format):
        original = TradeTape.from_arrays([2.0, 3.25, 1e-7], [10.0, 0.5, 3e9], epsilon=0.5)
        buf = io.StringIO()
        write_csv(original, buf)
        text = buf.getvalue()
        crlf = ingest(text.replace("\n", "\r\n"), value_format, epsilon=0.5)
        lf = ingest(text, value_format, epsilon=0.5)
        for field in FIELDS:
            assert getattr(crlf, field).tobytes() == getattr(lf, field).tobytes()

    @pytest.mark.parametrize("cell, error, message", [
        ("abc", NonFinite, "row 4505: volume 'abc' is not a number"),
        ("0", NonPositiveField, "row 4505: volume must be > 0, got 0.0"),
    ])
    def test_fault_beyond_first_block_names_row(self, cell, error, message):
        # tick 4500, after three blank lines: more than one parse block in
        lines = [f"{i},2,10" for i in range(5000)]
        lines[4500] = f"4500,2,{cell}"
        for at in (4000, 10, 0):
            lines.insert(at, " ")
        with pytest.raises(error) as info:
            ingest("time,price,volume\n" + "\n".join(lines) + "\n", DERIVE_VALUE, epsilon=1.0)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_valid_tape_never_walks_rows(self, monkeypatch):
        def locate(*args):
            raise AssertionError("a valid tape was walked row by row")

        monkeypatch.setattr(vawar.tape, "_walk_rows", locate)
        lines = [f"{i},{2 + i % 7},{10 + i % 3},{(2 + i % 7) * (10 + i % 3)}" for i in range(9000)]
        for at in (8500, 4096, 1, 0):
            lines.insert(at, "\t")
        text = "time,price,volume,value\n" + "\n\n".join(lines)
        for value_format in (DERIVE_VALUE, WITH_VALUE):
            tape, old = ingest(text, value_format), old_ingest(text, value_format)
            for field in FIELDS:
                assert getattr(tape, field).tobytes() == getattr(old, field).tobytes()


def test_open_file_peak_is_a_few_times_the_tape(tmp_path):
    # Read from an open file a block of lines at a time, a 50k-tick tape
    # peaks at the column buffers the parsed numbers grow in, never at its
    # text or a list of its lines (about 7 times the tape's arrays when
    # they were held); and so it does read by the CLI, whose blocks of
    # lines are joined to one string each.
    rng = np.random.default_rng(11)
    n = 50_000
    original = TradeTape.from_arrays(np.exp(np.cumsum(rng.normal(0, 1e-3, n))) * 37.5,
                                     rng.uniform(1, 1e4, n), epsilon=0.5)
    path = tmp_path / "tape.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(original, fh)
    arrays = sum(getattr(original, field).nbytes for field in FIELDS)

    def read_open_file():
        with open(path, encoding="utf-8") as fh:
            return ingest(fh, WITH_VALUE, epsilon=0.5)

    args = build_parser().parse_args(["validate", str(path)])
    for read in (read_open_file, lambda: _load_tape(args)):
        tape, peak = _traced_peak(read)
        assert len(tape) == n
        assert peak < 4 * arrays, (peak, arrays)


@pytest.mark.parametrize("newline", [None, "", "\n"])
def test_open_file_reads_as_its_text(tmp_path, newline):
    # Two ticks a line of the file, parted by a line boundary of
    # str.splitlines that ends no line of the file, and "\r\n" ending each
    # run of _CHUNK lines of the file: an open file reads as its text.
    chunk = vawar.tape._CHUNK
    rows = [f"{i * 0.5!r},{1.5 + i % 3},{10 + i % 7}" for i in range(6 * chunk)]
    breaks = ("\x0c", "\x1c", "\x85", "\u2028")
    lines = ["time,price,volume", *(rows[i] + breaks[i // 2 % 4] + rows[i + 1]
                                    for i in range(0, len(rows), 2))]
    path = tmp_path / "tape.csv"
    path.write_text("".join(line + ("\r\n" if k % chunk == chunk - 1 else "\n")
                            for k, line in enumerate(lines)), encoding="utf-8", newline="")
    with open(path, encoding="utf-8", newline=newline) as fh:
        from_file = ingest(fh, epsilon=0.5)
    from_text = ingest(path.read_text(encoding="utf-8"), epsilon=0.5)
    assert len(from_text) == len(rows)
    for field in FIELDS:
        assert getattr(from_file, field).tobytes() == getattr(from_text, field).tobytes()


# A tape of tape_io's size: 200k ticks of walk prices and heavy-tail volumes.
BIG_CONFIG = {"ticks": 200_000, "seed": 5,
              "price": {"model": "walk", "start": 100.0, "log_vol": 0.025},
              "volume": {"model": "heavy_tail", "base": 50.0, "shape": 2.5}}


def _traced_peak(f):
    # (f(), the peak of the memory traced while f ran)
    tracemalloc.start()
    try:
        result = f()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _nbytes(tape):
    return sum(getattr(tape, field).nbytes for field in FIELDS)


def _ingest_file(path, value_format):
    with open(path, encoding="utf-8") as fh:
        return ingest(fh, value_format)


# Runs `vawar` with its arguments, if any, after importing what `validate`
# runs, and prints the process's resident peak since exec in kB.
_PEAK_CHILD = """\
import sys
import numpy, vawar.cli, vawar.tape
if sys.argv[1:]:
    assert not vawar.cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(ln.split()[1] for ln in fh if ln.startswith("VmHWM:")))
"""


def _has_vmhwm():
    try:
        with open("/proc/self/status") as fh:
            return any(ln.startswith("VmHWM:") for ln in fh)
    except OSError:
        return False


def _vmhwm(*argv):
    # the VmHWM, in bytes, of a fresh interpreter running _PEAK_CHILD
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(vawar.tape.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", _PEAK_CHILD, *argv], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return int(done.stdout.split()[-1]) * 1024


@pytest.fixture(scope="module")
def big_tape():
    return generate(GenConfig.from_json(BIG_CONFIG))


@pytest.fixture(scope="module")
def big_csv(big_tape, tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "tape.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(big_tape, fh)
    return path


class TestHeldOnce:
    """A 200k-tick tape is held about once while it is built, checked and
    written: no full-length temporaries and no second copy of an array."""

    def test_generate(self):
        tape, peak = _traced_peak(lambda: generate(GenConfig.from_json(BIG_CONFIG)))
        assert peak <= 1.5 * _nbytes(tape), (peak, _nbytes(tape))

    @pytest.mark.parametrize("value_format", [WITH_VALUE, DERIVE_VALUE])
    def test_ingest(self, big_tape, big_csv, value_format):
        tape, peak = _traced_peak(lambda: _ingest_file(big_csv, value_format))
        assert len(tape) == len(big_tape)
        assert peak <= 1.5 * _nbytes(tape), (peak, _nbytes(tape))

    def test_ingest_views_its_column_buffers(self, big_csv):
        # each column grows in one buffer that the tape views: nothing is
        # joined or copied after the last block
        tape, peak = _traced_peak(lambda: _ingest_file(big_csv, WITH_VALUE))
        assert peak <= 1.2 * _nbytes(tape), (peak, _nbytes(tape))

    @pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
    def test_validate_peak_rss_is_about_the_tape(self, big_tape, big_csv, tmp_path):
        # the resident peak of `vawar validate` beyond a process that only
        # imports what it runs: the tape's columns and a block of lines
        gap = _vmhwm("validate", str(big_csv), "--out", str(tmp_path / "v.json")) - _vmhwm()
        assert gap <= 1.5 * _nbytes(big_tape), (gap, _nbytes(big_tape))

    @pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
    def test_simulate_peak_rss_does_not_grow_with_the_tape(self, tmp_path):
        # simulate holds one block of the tape, not the tape: 800k ticks
        # peak within 1 MB of 200k (the whole-tape build grew 18 MB)
        peaks = []
        for ticks in (200_000, 800_000):
            path = tmp_path / f"{ticks}.json"
            path.write_text(json.dumps({**BIG_CONFIG, "ticks": ticks}), encoding="utf-8")
            peaks.append(_vmhwm("simulate", "--config", str(path), "--out", os.devnull))
        assert peaks[1] - peaks[0] <= 2**20, peaks

    def test_check(self, big_tape):
        # a held tape is checked _TICKS ticks at a time: the temporaries are
        # a few arrays of one block (0.78 MB at blocks of 2**15 ticks)
        fields = [getattr(big_tape, field) for field in FIELDS]
        _, peak = _traced_peak(lambda: TradeTape._own(*fields, big_tape.epsilon))
        assert peak < 0.2 * 2**20, peak

    def test_write_csv(self, big_tape, tmp_path):
        # the tape is held already: the writer adds one block of rows and text
        with open(tmp_path / "tape.csv", "w", encoding="utf-8", newline="") as fh:
            _, peak = _traced_peak(lambda: write_csv(big_tape, fh))
        assert peak <= 2 * 2**20, peak


# A check block edge eight blocks into the tape (2**15 ticks), so the faults
# below sit on both sides of an edge between two blocks.
K = 8 * vawar.tape._TICKS


def _clean_fields(n, seed=0):
    # the arrays of a valid tape of n ticks at epsilon 0.5
    rng = np.random.default_rng(seed)
    prices = np.exp(rng.normal(0, 0.5, n)) * 20.0
    volumes = rng.uniform(1.0, 1e3, n)
    return [0.5 * np.arange(n, dtype=np.float64), prices, volumes, prices * volumes]


def _inject(fields, fault, i):
    # put one fault of BLOCK_FAULTS at tick i
    if fault == "gap":  # tick i off the grid: bad gaps i-1 -> i and i -> i+1
        fields[0][i] += 0.25
    elif fault == "overflow":  # a finite value, but price * volume overflows
        fields[1][i] = fields[2][i] = fields[3][i] = 1e300
    elif fault == "mismatch":
        fields[3][i] *= 1 + 2e-9
    else:
        column, x = {"nan time": (0, math.nan), "nan price": (1, math.nan),
                     "inf volume": (2, math.inf), "zero volume": (2, 0.0),
                     "negative value": (3, -1.5)}[fault]
        fields[column][i] = x


BLOCK_FAULTS = ("gap", "overflow", "mismatch", "nan time", "nan price", "inf volume",
                "zero volume", "negative value")


def _raised(check, fields, epsilon=0.5):
    # the class, message, tick and detail of what check(*fields, epsilon) raises
    try:
        check(*fields, epsilon)
    except TapeError as exc:
        return type(exc), str(exc), exc.tick, exc.detail
    return None


class TestBlockChecks:
    """The tape's checks run ``_TICKS`` ticks at a time and raise
    what one pass over the whole arrays (``helpers.old_check_tape``)
    raised."""

    @pytest.mark.parametrize("fault", BLOCK_FAULTS)
    @pytest.mark.parametrize("tick", [0, K - 1, K, K + 1, 2 * K + 2])
    def test_fault_at_block_edges(self, fault, tick):
        fields = _clean_fields(2 * K + 3)
        _inject(fields, fault, tick)
        expected = _raised(old_check_tape, fields)
        assert expected is not None
        assert _raised(TradeTape, fields) == expected
        if fault == "gap" and tick == K:  # the gap that spans the blocks
            assert expected[1] == f"ticks {K - 1}->{K}: spacing 0.75 != epsilon 0.5"

    @pytest.mark.parametrize("fault", BLOCK_FAULTS)
    @pytest.mark.parametrize("rows", [7, 4096, K + 1])
    def test_streamed_blocks_raise_what_the_held_tape_raises(self, fault, rows):
        # the check of a tape made a block at a time, at any block size
        fields = _clean_fields(2 * K + 3)
        for tick in (K - 1, 2 * K + 2):
            _inject(fields, fault, tick)
        def streamed(*fields_and_epsilon):
            *fields, epsilon = fields_and_epsilon
            blocks = (tuple(x[lo:lo + rows] for x in fields) for lo in range(0, len(fields[0]), rows))
            vawar.tape._check_blocks(blocks, epsilon)

        expected = _raised(old_check_tape, fields)
        assert expected is not None
        assert _raised(streamed, fields) == expected

    def test_later_tick_fault_wins_over_earlier_spacing_fault(self):
        fields = _clean_fields(2 * K + 3)
        _inject(fields, "gap", 5)
        _inject(fields, "zero volume", K + 3)
        expected = _raised(old_check_tape, fields)
        assert expected[:3] == (NonPositiveField, f"tick {K + 3}: volume must be > 0, got 0.0",
                                K + 3)
        assert _raised(TradeTape, fields) == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_random_faults_near_block_edges(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(K + 2, 3 * K))
        fields = _clean_fields(n, seed)
        edges = [t for k in (K, 2 * K) for t in range(k - 2, k + 3) if t < n]
        for _ in range(int(rng.integers(1, 4))):
            tick = int(rng.choice(edges)) if rng.random() < 0.7 else int(rng.integers(n))
            _inject(fields, BLOCK_FAULTS[rng.integers(len(BLOCK_FAULTS))], tick)
        assert _raised(TradeTape, fields) == _raised(old_check_tape, fields)
        assert _raised(TradeTape, _clean_fields(n, seed)) is None

    @pytest.mark.parametrize("cell, tick, error, message", [
        ("0", K + 1, NonPositiveField, f"row {K + 4}: volume must be > 0, got 0.0"),
        ("nan", K, NonFinite, f"row {K + 3}: volume 'nan' is not finite"),
    ])
    def test_ingest_names_row_past_first_block(self, cell, tick, error, message):
        lines = [f"{i},2,10" for i in range(K + 10)]
        lines[tick] = f"{tick},2,{cell}"
        lines.insert(7, "")
        with pytest.raises(error) as info:
            ingest("time,price,volume\n" + "\n".join(lines) + "\n", DERIVE_VALUE)
        assert str(info.value) == message

    def test_ingest_names_gap_across_block_edge(self):
        lines = [f"{i},2,10" for i in range(K + 10)]
        lines[K] = f"{K + 0.5},2,10"
        with pytest.raises(NonUniformSpacing) as info:
            ingest("time,price,volume\n" + "\n".join(lines) + "\n", DERIVE_VALUE)
        assert str(info.value) == f"row {K + 2}: spacing 1.5 != epsilon 1.0"
        assert info.value.tick == K

    def test_public_constructor_copies(self):
        fields = _clean_fields(10)
        tape = TradeTape(*fields, 0.5)
        for name, x in zip(FIELDS, fields):
            assert not np.shares_memory(getattr(tape, name), x)
            assert x.flags.writeable
            x[0] = 7.0
        assert tape.prices[0] != 7.0
        assert _raised(old_check_tape, [getattr(tape, name) for name in FIELDS]) is None

    @pytest.mark.parametrize("supply_values", [False, True])
    def test_from_arrays_copies(self, supply_values):
        _, prices, volumes, values = _clean_fields(10)
        tape = TradeTape.from_arrays(prices, volumes, epsilon=0.5,
                                     values=values if supply_values else None)
        for given in (prices, volumes, values):
            assert not any(np.shares_memory(getattr(tape, name), given) for name in FIELDS)
            assert given.flags.writeable
        prices[0] = volumes[0] = values[0] = 7.0
        assert 7.0 not in (tape.prices[0], tape.volumes[0], tape.values[0])


# Cells that do not parse, parse to a non-finite number, or parse to what
# a plain number would only through float's own rules; and cells that a C
# parser and float() read differently: a comment mark, a quote, Arabic-Indic
# digits (12.0 to float), a Unicode space, an embedded NUL and an ASCII
# separator, which numpy strips as white space and float() does not.
ODD_CELLS = ("abc", "nan", "inf", "-inf", "1_0", "1e400", "", " 3 ", "\t2", "+4",
             "1#5", '"3"', "\u0661\u0662", "\u20033", "1\x00", "2\x1f")


@st.composite
def tape_texts(draw):
    """CSV text of a short tape, with odd cells, odd lines and line endings."""
    width = draw(st.sampled_from((3, 4)))
    rows = []
    for i in range(draw(st.integers(1, 8))):
        price = draw(st.sampled_from((2.0, 0.1, 37.25, 1e-300)))
        volume = draw(st.sampled_from((10.0, 3.0, 0.7, 1e300)))
        rows.append([repr(i * 0.5), repr(price), repr(volume), repr(price * volume)][:width])
    for _ in range(draw(st.integers(0, 3))):
        cells = draw(st.sampled_from(rows))
        column = draw(st.integers(0, len(cells) - 1))
        fault = draw(st.sampled_from(("cell", "pad", "extra", "missing", "zero", "negative",
                                      "digit")))
        if fault == "cell":
            cells[column] = draw(st.sampled_from(ODD_CELLS))
        elif fault == "pad":
            cells[column] = f" {cells[column]}\t"
        elif fault == "extra":
            cells.append("1")
        elif fault == "missing" and len(cells) > 1:
            cells.pop()
        elif fault in ("zero", "negative"):
            cells[column] = "0" if fault == "zero" else "-1.5"
        else:  # one more digit: a bad spacing on a time, a mismatch on a read value
            cells[column] += "3"
    lines = [",".join(cells) for cells in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", " ", "\t "))))
    if draw(st.booleans()):
        lines[0] = f"  {lines[0]} "
    header = ",".join(("time", "price", "volume", "value")[:width])
    if draw(st.booleans()):
        header = "\ufeff" + header
    eol = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return eol.join([header, *lines]) + draw(st.sampled_from(("", eol)))


def _outcome(read, text, value_format, stream):
    # the tape's arrays as bytes, or what the read raised
    try:
        tape = read(io.StringIO(text) if stream else text, value_format, epsilon=0.5)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "tick", None), getattr(exc, "detail", None)
    return tuple(getattr(tape, field).tobytes() for field in FIELDS)


@settings(max_examples=budget(400), deadline=None)
@given(text=tape_texts(), value_format=st.sampled_from((DERIVE_VALUE, WITH_VALUE)),
       stream=st.booleans())
def test_ingest_matches_row_loop(text, value_format, stream):
    # a stream reads as its text
    assert (_outcome(ingest, text, value_format, stream)
            == _outcome(old_ingest, text, value_format, stream=False))


@pytest.mark.parametrize("cell, column", [("1_0", 1), ("\u0661\u0662", 2), ("abc", 3)])
@pytest.mark.parametrize("width", [3, 4])
@pytest.mark.parametrize("value_format", [DERIVE_VALUE, WITH_VALUE])
def test_walked_block_reads_as_row_loop(monkeypatch, cell, column, width, value_format):
    # A cell that float() reads and the C parse rejects, in the second of
    # three blocks, sends that block alone to the row walk: the tape's
    # numbers are the row loop's, or so is the fault.
    walked = []

    def walk(lines, *args):
        walked.append(len(lines))
        return walk_rows(lines, *args)

    walk_rows = vawar.tape._walk_rows
    monkeypatch.setattr(vawar.tape, "_walk_rows", walk)
    rows = [[str(i), "2", "10", "20"][:width] for i in range(vawar.tape._CHUNK + 10)]
    tick = vawar.tape._CHUNK + 3
    if column < width:
        rows[tick][column] = cell
        if width == 4 and column < 3:  # keep the value price * volume
            rows[tick][3] = repr(float(cell) * (10.0 if column == 1 else 2.0))
    header = ",".join(vawar.tape._COLUMNS[:width])
    text = header + "\n" + "\n".join(map(",".join, rows)) + "\n"
    expected = _outcome(old_ingest, text, value_format, stream=False)
    assert _outcome(ingest, text, value_format, stream=False) == expected
    if value_format == WITH_VALUE and width == 3:
        assert expected[0] is MalformedRow
    elif column == 3 and value_format == WITH_VALUE:
        assert expected[:2] == (NonFinite, f"row {tick + 2}: value 'abc' is not a number")
    else:
        assert len(expected) == 4  # a tape
        assert walked == ([10] if column < width else [])


@pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_separator_by_a_cell_reads_as_float(separator):
    # numpy strips an ASCII separator from a cell as white space, and
    # float() rejects the cell; given as lines, none of them breaks a line
    lines = ["time,price,volume", "0,2,10", f"1,2{separator},10", "2,2,10"]
    expected = _outcome(old_ingest, lines, DERIVE_VALUE, stream=False)
    assert expected[:2] == (NonFinite, f"row 3: price {'2' + separator!r} is not a number")
    assert _outcome(ingest, lines, DERIVE_VALUE, stream=False) == expected


# (column, injected value) of each tick fault; None scales the value just
# beyond VALUE_REL_TOL
TICK_FAULTS = (
    [(c, x) for c in range(4) for x in (math.nan, math.inf, -math.inf)]
    + [(c, x) for c in (1, 2, 3) for x in (0.0, -1.5)]
    + [(3, None)]
)


class TestTick:
    def test_fields_validated(self):
        with pytest.raises(NonPositiveField):
            TradeTick(index=0, time=0.0, price=-1.0, volume=1.0, value=1.0)
        with pytest.raises(NonFinite):
            TradeTick(index=0, time=0.0, price=math.inf, volume=1.0, value=1.0)
        with pytest.raises(ValueMismatch):
            TradeTick(index=0, time=0.0, price=2.0, volume=10.0, value=19.9)

    def test_message_names_field_and_value(self):
        with pytest.raises(NonPositiveField, match=r"^tick 3: volume must be > 0, got -1\.0$"):
            TradeTick(index=3, time=0.0, price=1.0, volume=-1.0, value=1.0)
        with pytest.raises(NonFinite, match=r"^tick 0: time is not finite$") as info:
            TradeTick(index=0, time=math.nan, price=-1.0, volume=1.0, value=1.0)
        assert (info.value.tick, info.value.detail) == (0, "time is not finite")

    def test_tape_spacing_error(self):
        with pytest.raises(NonUniformSpacing) as info:
            TradeTape([0.0, 1.0, 2.5], [2.0] * 3, [1.0] * 3, [2.0] * 3, 1.0)
        assert str(info.value) == "ticks 1->2: spacing 1.5 != epsilon 1.0"
        assert info.value.tick == 2

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("fault", range(len(TICK_FAULTS)))
    def test_tape_raises_what_first_bad_tick_raises(self, fault, seed):
        # the fault under test and one more drawn from the list, at random ticks
        rng = np.random.default_rng([fault, seed])
        n = int(rng.integers(2, 60))
        fields = [np.arange(n, dtype=np.float64), np.exp(rng.normal(0, 1, n)),
                  np.exp(rng.normal(3, 2, n))]
        fields.append(fields[1] * fields[2])
        faults = [TICK_FAULTS[fault], TICK_FAULTS[rng.integers(len(TICK_FAULTS))]]
        for i, (column, x) in zip(rng.choice(n, size=2, replace=False), faults):
            fields[column][i] = fields[3][i] * (1 + 2e-9) if x is None else x
        first = None
        for i in range(n):
            try:
                TradeTick(i, *(float(f[i]) for f in fields))
            except (NonFinite, NonPositiveField, ValueMismatch) as exc:
                first = exc
                break
        assert first is not None
        with pytest.raises(type(first)) as info:
            TradeTape(*fields, 1.0)
        assert type(info.value) is type(first)
        assert (str(info.value), info.value.tick) == (str(first), first.tick)

    def test_tape_indexing(self, tape_a):
        tick = tape_a[2]
        assert tick.index == 2
        assert tick.price == 4.0
        assert tick.value == 40.0
        assert len(tape_a.ticks) == 4

    def test_tape_index_is_an_index(self, tape_a):
        assert tape_a[np.int64(2)] == tape_a[2]
        assert tape_a[-1].index == 3
        with pytest.raises(IndexError, match="^tick index 4 out of range$"):
            tape_a[4]
        with pytest.raises(IndexError, match="^tick index -1 out of range$"):
            tape_a[-5]
        for i in (1.5, 1.0, "1", None):
            with pytest.raises(TypeError):
                tape_a[i]

    def test_arrays_read_only(self, tape_a):
        with pytest.raises(ValueError):
            tape_a.prices[0] = 99.0


class TestResolve:
    def test_fixture_window(self, tape_a):
        window = resolve(tape_a, WindowSpec(1, 3), LagSpec(1))
        assert window.indices.tolist() == [1, 2, 3]
        assert window.lagged_prices().tolist() == [2.0, 2.0, 4.0]

    def test_float_lag_reads_its_integer_lag(self, tape_a):
        window = resolve(tape_a, WindowSpec(2, 2), LagSpec(2.0))
        assert window.lagged_prices().tolist() == window.lagged_prices(2).tolist()

    def test_insufficient_history(self, tape_a):
        with pytest.raises(InsufficientHistory):
            resolve(tape_a, WindowSpec(0, 3), LagSpec(1))

    def test_window_out_of_range(self, tape_a):
        with pytest.raises(WindowOutOfRange):
            resolve(tape_a, WindowSpec(1, 4), LagSpec(1))

    def test_degenerate_specs(self):
        with pytest.raises(WindowOutOfRange):
            WindowSpec(start=-1, count=3)
        with pytest.raises(WindowOutOfRange):
            WindowSpec(start=0, count=1)
        with pytest.raises(ValueError):
            LagSpec(lag_l=0)
        with pytest.raises(ValueError):
            LagSpec(lag_l=1, window_shift_j=-1)

    @given(
        ticks=st.integers(3, 80),
        count=st.integers(2, 40),
        start=st.integers(0, 60),
        lag=st.integers(1, 6),
    )
    def test_lagged_indices_always_valid(self, ticks, count, start, lag):
        prices = np.linspace(1.0, 2.0, ticks)
        volumes = np.full(ticks, 3.0)
        tape = TradeTape.from_arrays(prices, volumes)
        try:
            window = resolve(tape, WindowSpec(start, count), LagSpec(lag))
        except (InsufficientHistory, WindowOutOfRange):
            assert start < lag or start + count > ticks
            return
        for i in window.indices:
            assert 0 <= i - lag < ticks
        assert window.lagged_prices().shape == (count,)


def test_infer_epsilon():
    assert infer_epsilon(FIXTURE_CSV) == 1.0
    assert infer_epsilon("time,price,volume\n0,1,1\n0.5,1,1\n") == 0.5
    assert infer_epsilon("time,price,volume\n") == 1.0


def test_infer_epsilon_reads_three_lines():
    def lines():
        yield from ("time,price,volume", "", "2,1,1", " ", "2.25,1,1")
        raise AssertionError("read past the second data row")

    assert infer_epsilon(lines()) == 0.25
    assert infer_epsilon(["time,price,volume", "0,1,1"]) == 1.0
