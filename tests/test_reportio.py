"""The template formatter against the recursive writer it replaced
(``helpers.old_dumps_json`` / ``helpers.old_write_csv_rows``): every
document and table must come out byte for byte the same."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import old_dumps_json, old_write_csv_rows
from vawar import reportio
from vawar.moments import MomentReport, moment_reports
from vawar.reportio import Records, dumps_json, write_csv_rows
from vawar.synth import GenConfig, HeavyTailVolume, WalkPrice, generate
from vawar.tape import WindowSpec

NAN, INF = math.nan, math.inf

# strings that JSON must escape, or that would break a % template
ESCAPED = ['"', "\\", "%", "%s", "%%d", "100%", "a\nb", "\t", "\x00", "\x1f",
           "é", " ", "\U0001f600", "</script>"]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([NAN, INF, -INF, 0.0, -0.0, 1.0, 1e-310, 1.7976931348623157e308]),
    st.text(max_size=8),
    st.sampled_from(ESCAPED),
)
KEYS = st.one_of(st.text(max_size=6), st.sampled_from(ESCAPED), st.integers(-5, 5),
                 st.booleans(), st.none())


def _documents(leaves):
    def children(inner):
        return st.one_of(
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(KEYS, inner, max_size=5),
            st.lists(st.fixed_dictionaries({"a": inner, "%b": leaves, "c": leaves}), max_size=6),
        )
    return st.recursive(leaves, children, max_leaves=40)


DOCUMENTS = _documents(SCALARS)


def budget(n):
    # n examples, or the loaded hypothesis profile's budget where that is
    # larger (HYPOTHESIS_PROFILE=ci, registered in conftest.py)
    return max(n, settings.default.max_examples)


# Whole outputs are compared as lists of lines: pytest explains a mismatch
# of two long strings with a quadratic diff, and of two lists at once.
@settings(max_examples=budget(250), deadline=None)
@given(DOCUMENTS, st.sampled_from([0, 1, 2, 4]))
def test_json_matches_recursive_writer(doc, indent):
    assert dumps_json(doc, indent).splitlines(True) == old_dumps_json(doc, indent).splitlines(True)


@settings(max_examples=budget(200), deadline=None)
@given(st.lists(st.tuples(st.integers(), SCALARS, SCALARS), max_size=40), st.integers(1, 4))
def test_records_match_in_every_chunking(rows, chunk):
    dicts = [dict(zip("jxy", row)) for row in rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reportio, "_CHUNK", chunk)
        assert (dumps_json({"rows": Records("jxy", rows)}).splitlines(True)
                == old_dumps_json({"rows": dicts}).splitlines(True))


@settings(max_examples=budget(200), deadline=None)
@given(st.lists(st.lists(SCALARS, max_size=5), max_size=12), st.integers(1, 4))
def test_csv_matches_old_writer(rows, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reportio, "_CHUNK", chunk)
        new, old = io.StringIO(), io.StringIO()
        write_csv_rows(new, ["a", "b"], rows)
    old_write_csv_rows(old, ["a", "b"], rows)
    assert new.getvalue().splitlines(True) == old.getvalue().splitlines(True)


# Cells of float tables: the edges of binary64, and whole numbers up to
# 2**53 for the columns that hold ints
EDGE_FLOATS = [NAN, INF, -INF, 0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e308,
               -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
WHOLE = [0, 1, -1, 390, 10**16, 2**53 - 1, 2**53, -(2**53)]


@st.composite
def float_tables(draw):
    """(ints, width, table): a 2-D float array of 0, 1, 255, 256, 257 or
    513 rows whose first ``ints`` columns hold whole numbers, the next
    ``width`` a list field, then one to three floats; maybe with a NaN or an
    infinity on a row at a chunk edge."""
    rows = draw(st.sampled_from([0, 1, 255, 256, 257, 513]))
    ints, width, floats = draw(st.integers(0, 2)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.one_of(finite, st.sampled_from(EDGE_FLOATS)), min_size=1, max_size=6))
    whole = draw(st.lists(st.one_of(st.integers(-(2**53), 2**53), st.sampled_from(WHOLE)),
                          min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = np.empty((rows, ints + width + floats))
    table[:, :ints] = rng.choice(np.array(whole, dtype=np.float64), (rows, ints))
    table[:, ints:] = rng.choice(np.array(pool), (rows, width + floats))
    edges = [k for k in (0, 255, 256, 511, 512, rows - 1) if 0 <= k < rows]
    if edges and draw(st.booleans()):
        k, j = draw(st.sampled_from(edges)), draw(st.integers(ints, table.shape[1] - 1))
        table[k, j] = draw(st.sampled_from([NAN, INF, -INF]))
    return ints, width, table


@settings(max_examples=budget(100), deadline=None)
@given(float_tables())
def test_float_tables_match_old_writer(case):
    # a float array writes as its rows of Python numbers did, whole-number
    # columns as ints: CSV and Records JSON
    ints, width, table = case
    rows = [[*map(int, row[:ints]), *row[ints:]] for row in table.tolist()]
    names = [f"i{k}" for k in range(ints)] + [f"f{k}" for k in range(table.shape[1] - ints - width)]
    new, old = io.StringIO(), io.StringIO()
    write_csv_rows(new, names, table)
    old_write_csv_rows(old, names, rows)
    assert new.getvalue().splitlines(True) == old.getvalue().splitlines(True)

    fields = (*names[:ints], ("xs_n", width), *names[ints:])
    dicts = [{**dict(zip(names[:ints], row)), "xs_n": row[ints:ints + width],
              **dict(zip(names[ints:], row[ints + width:]))} for row in rows]
    assert (dumps_json({"rows": Records(fields, table)}).splitlines(True)
            == old_dumps_json({"rows": dicts}).splitlines(True))


@settings(max_examples=budget(100), deadline=None)
@given(float_tables(), st.lists(st.integers(0, 600), max_size=4))
def test_float_blocks_write_as_their_table(case, cuts):
    # a table handed over as an iterator of blocks of rows, cut anywhere
    # (empty blocks too), writes as the whole table: CSV and Records JSON
    _, _, table = case
    edges = sorted({0, len(table), *(min(c, len(table)) for c in cuts)})
    blocks = [table[a:b] for a, b in zip(edges, edges[1:])] or [table]
    names = [f"f{k}" for k in range(table.shape[1])]
    new, whole = io.StringIO(), io.StringIO()
    write_csv_rows(new, names, iter(blocks))
    write_csv_rows(whole, names, table)
    assert new.getvalue().splitlines(True) == whole.getvalue().splitlines(True)
    assert (dumps_json({"rows": Records(names, iter(blocks))}).splitlines(True)
            == dumps_json({"rows": Records(names, table)}).splitlines(True))


def test_float_blocks_are_written_as_they_come():
    # each block is written before the next is taken
    taken, writes = [], []

    def blocks():
        for k in range(3):
            taken.append(k)
            yield np.full((2 * reportio._CHUNK, 2), k + 0.5)

    class Stream:
        def write(self, text):
            writes.append((text.count("\n"), len(taken)))

    write_csv_rows(Stream(), ["x", "y"], blocks())
    header, *rows = writes
    assert sum(n for n, _ in rows) == 6 * reportio._CHUNK
    assert [k for _, k in rows] == [1, 1, 2, 2, 3, 3]


@pytest.mark.parametrize("chunk", [2, 4, 256])
def test_csv_rows_of_other_lengths_in_one_chunk(monkeypatch, chunk):
    # the last two rows hold as many floats as two rows of the first shape
    monkeypatch.setattr(reportio, "_CHUNK", chunk)
    rows = [(1.0, 2.0), (3.0, 4.0), (5.0,), (6.0, 7.0, 8.0), (9.0, 0.5)]
    out = io.StringIO()
    write_csv_rows(out, ["a", "b"], rows)
    assert out.getvalue() == "a,b\n1,2\n3,4\n5\n6,7,8\n9,0.5\n"


def test_csv_holds_at_most_a_chunk_of_rows():
    # each write holds at most _CHUNK rows, and the first comes before the
    # rows run out: memory is bounded by a chunk, not by the table
    state = {"exhausted": False, "writes": []}

    def rows():
        yield from ((k, 0.5, 2.0) for k in range(10_000))
        state["exhausted"] = True

    class Stream:
        def write(self, text):
            state["writes"].append((text.count("\n"), state["exhausted"]))

    write_csv_rows(Stream(), ["k", "x", "y"], rows())
    header, *writes = state["writes"]
    assert header == (1, False)
    assert sum(n for n, _ in writes) == 10_000
    assert max(n for n, _ in writes) <= reportio._CHUNK
    assert writes[0][1] is False


@pytest.mark.parametrize("doc", [
    NAN, INF, -INF, [NAN, INF, -INF, 1.5],
    {"x": NAN, "y": [INF, {"z": -INF}]},
    [], {}, [[]], [{}], {"a": [], "b": {}}, [[], [[], [{}]]],
    [True, 1, False, 0, 1.0], {"flag": True, "count": 1, "off": False},
    None, [None, None], {"none": None},
    ESCAPED, {k: k for k in ESCAPED},
    {1: "int key", None: "none key", True: "bool key"},
    [{"a": 1, "b": 2.5}, {"a": 2, "b": NAN}, {"b": 1.0, "a": 3}, {"a": 4, "b": [1, {}]}],
])
def test_json_cases(doc):
    assert dumps_json(doc).splitlines(True) == old_dumps_json(doc).splitlines(True)


def test_bools_are_not_ints():
    assert dumps_json([True, 1, False, 0]) == "[\n  true,\n  1,\n  false,\n  0\n]\n"
    out = io.StringIO()
    write_csv_rows(out, ["a", "b", "c", "d"], [(True, 1, False, 0), (1, True, 0, False)])
    assert out.getvalue() == "a,b,c,d\ntrue,1,false,0\n1,true,0,false\n"


def test_non_finite_and_none_cells():
    assert dumps_json([1.0, NAN, None, INF, -INF, 2]) == (
        "[\n  1,\n  null,\n  null,\n  null,\n  null,\n  2\n]\n")
    out = io.StringIO()
    write_csv_rows(out, ["a"] * 5, [(0.5, NAN, None, INF, -INF)])
    assert out.getvalue() == "a,a,a,a,a\n0.5,,,,\n"


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", 1j])
def test_unsupported_values_raise_as_before(bad):
    with pytest.raises(TypeError) as new:
        dumps_json({"a": [1.0, bad]})
    with pytest.raises(TypeError) as old:
        old_dumps_json({"a": [1.0, bad]})
    assert str(new.value) == str(old.value)


class TestRecords:
    FIELDS = ("k", ("xs", 3), ("empty", 0), "tail")

    @staticmethod
    def as_dicts(rows):
        return [{"k": r[0], "xs": list(r[1:4]), "empty": [], "tail": r[4]} for r in rows]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 256])
    def test_shape_changes_partway(self, monkeypatch, chunk):
        monkeypatch.setattr(reportio, "_CHUNK", chunk)
        rows = [(k, 0.5 * k, 1.0 / (k + 1), -k * 1e300, "s") for k in range(40)]
        rows[7] = (7, NAN, 1.0, 2.0, "s")            # a NaN in one row
        rows[8] = (8, 1.0, INF, -INF, "s")
        rows[20] = (20, 1.0, 2.0, 3.0, None)          # a None
        rows[21] = (21, 1.0, 2.0, 3.0, True)          # a bool where strings were
        rows[30:33] = [(k, 1.0, 2.0, 3.0, 'q"%d') for k in range(30, 33)]
        doc = {"n": len(rows), "rows": Records(self.FIELDS, rows)}
        want = old_dumps_json({"n": len(rows), "rows": self.as_dicts(rows)})
        assert dumps_json(doc).splitlines(True) == want.splitlines(True)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 256])
    def test_shapes_alternate_on_every_row(self, monkeypatch, chunk):
        # a sweep's corr_rU/corr_rp pairs: every row goes back to the shape
        # before the last one
        monkeypatch.setattr(reportio, "_CHUNK", chunk)
        rows = []
        for j in range(30):
            rows.append((j, "corr_rU", 0.5 * j, 1.0 / (j + 1), -j * 1e300))
            rows.append((j, "corr_rp", 2.0 * j, None, 1e-300 * j))
        rows[13] = (6, "corr_rp", NAN, None, 1.0)
        fields = ("j", "statistic", "value_form", "price_form", "definitional")
        want = old_dumps_json({"rows": [dict(zip(fields, r)) for r in rows]})
        assert (dumps_json({"rows": Records(fields, rows)}).splitlines(True)
                == want.splitlines(True))
        out, old = io.StringIO(), io.StringIO()
        write_csv_rows(out, fields, rows)
        old_write_csv_rows(old, fields, rows)
        assert out.getvalue().splitlines(True) == old.getvalue().splitlines(True)

    def test_empty(self):
        assert dumps_json({"rows": Records(self.FIELDS, [])}) == old_dumps_json({"rows": []})
        assert dumps_json(Records((), [(), ()])) == old_dumps_json([{}, {}])

    def test_rows_may_be_any_iterable(self):
        rows = [(1, 1.0, 2.0, 3.0, "a"), (2, 4.0, 5.0, 6.0, "b")]
        assert (dumps_json(Records(self.FIELDS, iter(rows))).splitlines(True)
                == old_dumps_json(self.as_dicts(rows)).splitlines(True))

    def test_columns_of_the_layout(self):
        assert reportio.columns(("k", ("x_n", 3), ("empty", 0), "tail")) == [
            "k", "x_1", "x_2", "x_3", "tail"]


class TestMomentReports:
    @staticmethod
    def reports(order, stride=1):
        tape = generate(GenConfig(ticks=80, seed=3, price=WalkPrice(start=50.0, log_vol=0.03),
                                  volume=HeavyTailVolume(base=5.0, shape=1.5)))
        return moment_reports(tape, WindowSpec(4, 20), 2, order, stride)

    @pytest.mark.parametrize("order", [1, 2, 8])
    @pytest.mark.parametrize("chunk", [1, 5, 256])
    def test_nan_in_one_report(self, monkeypatch, order, chunk):
        # report k holds a NaN: null in its JSON object and an empty CSV
        # cell in its row, and nowhere else
        monkeypatch.setattr(reportio, "_CHUNK", chunk)
        reports = self.reports(order)
        k = 11
        reports[k] = dataclasses.replace(reports[k], sigma_p2=NAN,
                                         return_moments=(INF,) + reports[k].return_moments[1:])
        rows = [r.csv_row() for r in reports]
        doc = dumps_json(Records(MomentReport.json_fields(order), rows))
        assert (doc.splitlines(True)
                == old_dumps_json([r.to_dict() for r in reports]).splitlines(True))
        texts = doc.split("\n  },\n")
        assert [t.count("null") for t in texts] == [2 * (j == k) for j in range(len(texts))]

        out, old = io.StringIO(), io.StringIO()
        write_csv_rows(out, MomentReport.csv_header(order), rows)
        old_write_csv_rows(old, MomentReport.csv_header(order), rows)
        assert out.getvalue().splitlines(True) == old.getvalue().splitlines(True)
        lines = out.getvalue().splitlines()[1:]
        assert [",," in line or line.endswith(",") for line in lines] == [
            j == k for j in range(len(lines))]

    def test_to_dict_is_the_json_layout(self):
        for report in self.reports(3, stride=7):
            doc = report.to_dict()
            assert list(doc) == ["window_start", "window_count", "lag", "order_max",
                                 "C_n", "U_n", "p_n", "Ca_n", "pa_n", "r_n", "sigma_C2",
                                 "sigma_Ca2", "sigma_U2", "sigma_p2", "sigma_pa2", "sigma_r2"]
            assert doc["Ca_n"] == list(report.adj_value_moments)
            assert doc["sigma_r2"] == report.sigma_r2

    @pytest.mark.parametrize("order", [1, 3, 10])
    def test_csv_header_names_each_order(self, order):
        # the header as it was spelled out before it was derived from json_fields
        families = [f"{k}_{n}" for k in ("C", "U", "p", "Ca", "pa", "r")
                    for n in range(1, order + 1)]
        assert MomentReport.csv_header(order) == [
            "window_start", "window_count", "lag", "order_max", *families, "sigma_C2",
            "sigma_Ca2", "sigma_U2", "sigma_p2", "sigma_pa2", "sigma_r2"]
