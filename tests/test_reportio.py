"""The template formatter against the recursive writer it replaced
(``helpers.old_dumps_json`` / ``helpers.old_write_csv_rows``): every
document and table must come out byte for byte the same."""

import dataclasses
import io
import math

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


@settings(max_examples=250, deadline=None)
@given(DOCUMENTS, st.sampled_from([0, 1, 2, 4]))
def test_json_matches_recursive_writer(doc, indent):
    assert dumps_json(doc, indent) == old_dumps_json(doc, indent)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(), SCALARS, SCALARS), max_size=40), st.integers(1, 4))
def test_records_match_in_every_chunking(rows, chunk):
    dicts = [dict(zip("jxy", row)) for row in rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reportio, "_CHUNK", chunk)
        assert dumps_json({"rows": Records("jxy", rows)}) == old_dumps_json({"rows": dicts})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(SCALARS, max_size=5), max_size=12), st.integers(1, 4))
def test_csv_matches_old_writer(rows, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reportio, "_CHUNK", chunk)
        new, old = io.StringIO(), io.StringIO()
        write_csv_rows(new, ["a", "b"], rows)
    old_write_csv_rows(old, ["a", "b"], rows)
    assert new.getvalue() == old.getvalue()


@pytest.mark.parametrize("chunk", [2, 4, 256])
def test_csv_rows_of_other_lengths_in_one_chunk(monkeypatch, chunk):
    # the last two rows hold as many floats as two rows of the first shape
    monkeypatch.setattr(reportio, "_CHUNK", chunk)
    rows = [(1.0, 2.0), (3.0, 4.0), (5.0,), (6.0, 7.0, 8.0), (9.0, 0.5)]
    out = io.StringIO()
    write_csv_rows(out, ["a", "b"], rows)
    assert out.getvalue() == "a,b\n1,2\n3,4\n5\n6,7,8\n9,0.5\n"


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
    assert dumps_json(doc) == old_dumps_json(doc)


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
        assert dumps_json(doc) == want

    def test_empty(self):
        assert dumps_json({"rows": Records(self.FIELDS, [])}) == old_dumps_json({"rows": []})
        assert dumps_json(Records((), [(), ()])) == old_dumps_json([{}, {}])

    def test_rows_may_be_any_iterable(self):
        rows = [(1, 1.0, 2.0, 3.0, "a"), (2, 4.0, 5.0, 6.0, "b")]
        assert dumps_json(Records(self.FIELDS, iter(rows))) == old_dumps_json(self.as_dicts(rows))

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
        assert doc == old_dumps_json([r.to_dict() for r in reports])
        texts = doc.split("\n  },\n")
        assert [t.count("null") for t in texts] == [2 * (j == k) for j in range(len(texts))]

        out, old = io.StringIO(), io.StringIO()
        write_csv_rows(out, MomentReport.csv_header(order), rows)
        old_write_csv_rows(old, MomentReport.csv_header(order), rows)
        assert out.getvalue() == old.getvalue()
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
