from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effx.dataset import (
    Dataset,
    DmuRecord,
    DuplicateId,
    InvalidDataset,
    MissingColumn,
    NonNumericCell,
    NonPositiveInput,
    parse_dataset,
    serialize_dataset,
    summarize,
)
from conftest import index_of
from oracles import parse_dataset_by_cell
from test_cli import ODD_CELLS, mutated_csv, mutations, quote_all

MINIMAL = "id,name,in0,out0\na,unit a,1,1\n"


class TestParse:
    def test_minimal_one_row(self):
        ds = parse_dataset(MINIMAL, ["in0"], ["out0"])
        assert (ds.n, ds.m, ds.s) == (1, 1, 1)
        assert ds.strong_rule is False
        assert ds.weak_rule is False

    def test_column_order_follows_schema_not_file(self):
        text = "id,out0,in1,in0\na,5,2,3\n"
        ds = parse_dataset(text, ["in0", "in1"], ["out0"])
        assert ds.dmus[0].inputs == (3.0, 2.0)
        assert ds.dmus[0].outputs == (5.0,)

    def test_missing_column(self):
        with pytest.raises(MissingColumn) as err:
            parse_dataset(MINIMAL, ["in0", "absent"], ["out0"])
        assert err.value.column == "absent"

    def test_non_numeric_cell(self):
        text = "id,in0,out0\na,abc,1\n"
        with pytest.raises(NonNumericCell) as err:
            parse_dataset(text, ["in0"], ["out0"])
        assert (err.value.row, err.value.column) == (1, "in0")

    def test_non_positive_input(self):
        text = "id,in0,out0\na,0,1\n"
        with pytest.raises(NonPositiveInput):
            parse_dataset(text, ["in0"], ["out0"])

    def test_duplicate_id(self):
        text = "id,in0,out0\na,1,1\na,2,2\n"
        with pytest.raises(DuplicateId):
            parse_dataset(text, ["in0"], ["out0"])

    def test_zero_output_accepted(self):
        text = "id,in0,out0,out1\na,1,0,2\n"
        ds = parse_dataset(text, ["in0"], ["out0", "out1"])
        assert ds.dmus[0].outputs == (0.0, 2.0)

    def test_negative_output_rejected(self):
        text = "id,in0,out0\na,1,-1\n"
        with pytest.raises(InvalidDataset):
            parse_dataset(text, ["in0"], ["out0"])

    def test_empty_body_rejected(self):
        with pytest.raises(InvalidDataset):
            parse_dataset("id,in0,out0\n", ["in0"], ["out0"])


# ids are whitespace-stripped on ingestion, so generate them pre-stripped
ids = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_ ", min_size=1, max_size=10).filter(
        lambda s: s == s.strip()
    ),
    min_size=1,
    max_size=6,
    unique=True,
)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
nonneg = st.one_of(st.just(0.0), positive)


@st.composite
def datasets(draw):
    unit_ids = draw(ids)
    m = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    records = []
    for uid in unit_ids:
        records.append(
            DmuRecord(
                id=uid,
                name=uid.upper(),
                inputs=tuple(draw(positive) for _ in range(m)),
                outputs=tuple(draw(nonneg) for _ in range(s)),
                group=draw(st.booleans()),
            )
        )
    return Dataset(
        dmus=tuple(records),
        input_names=tuple(f"in{j}" for j in range(m)),
        output_names=tuple(f"out{j}" for j in range(s)),
    )


class TestColumnwiseParse:
    """parse_dataset converts whole columns and Dataset checks whole
    arrays; a scan row by row only names the first bad cell. Both must
    agree with the per-cell reader, down to the bits and the messages."""

    HEADER = ["id", "name", "i0", "i1", "o0", "o1", "GROUP"]

    @staticmethod
    def outcome(text):
        def run(parse):
            try:
                ds = parse(text, ("i0", "i1"), ("o0", "o1"))
            except Exception as err:  # noqa: BLE001 - the error is the outcome
                return "error", type(err).__name__, str(err)
            return "ok", repr(ds), ds.input_matrix.tobytes(), ds.output_matrix.tobytes()

        return run(parse_dataset), run(parse_dataset_by_cell)

    @staticmethod
    def base_rows(n: int = 12):
        rng = np.random.default_rng(11)
        return [
            [f"u{i}", f"unit {i}", *map(repr, rng.uniform(0.5, 10.0, 2).tolist()),
             *map(repr, rng.uniform(0.0, 10.0, 2).tolist()), str(rng.integers(0, 2))]
            for i in range(n)
        ]

    @settings(max_examples=200)
    @given(st.lists(mutations, max_size=5))
    # one row a cell short and another a cell long: as many commas in all
    # as a plain text
    @example([("short", 1, 6), ("extra", 2, 1)])
    def test_matches_per_cell_reader(self, muts):
        new, old = self.outcome(mutated_csv(self.HEADER, self.base_rows(), muts))
        assert new == old

    def test_every_odd_cell_in_every_column(self):
        rows = self.base_rows(3)
        for j in range(1, len(self.HEADER)):
            for cell in ODD_CELLS:
                new, old = self.outcome(mutated_csv(self.HEADER, rows, [("cell", 1, j - 1, cell)]))
                assert new == old, (self.HEADER[j], cell)

    def test_plain_and_quoted_text_read_alike(self):
        # The plain text is split on ',' without csv.reader; quoting every
        # cell sends the same text through csv.reader.
        rows = self.base_rows()
        with mock.patch("csv.reader", side_effect=AssertionError("csv.reader")):
            plain, _ = self.outcome(mutated_csv(self.HEADER, rows, []))
        quoted, _ = self.outcome(mutated_csv(quote_all(self.HEADER), list(map(quote_all, rows)), []))
        assert plain[0] == "ok"
        assert quoted == plain


class TestRoundTrip:
    @settings(max_examples=50)
    @given(datasets())
    def test_parse_serialize_parse_identity(self, ds):
        text = serialize_dataset(ds)
        again = parse_dataset(text, ds.input_names, ds.output_names)
        assert again == ds
        assert serialize_dataset(again) == text


class TestSummarize:
    def test_identical_column(self):
        records = tuple(
            DmuRecord(id=f"u{i}", name="", inputs=(7.0,), outputs=(float(i + 1),))
            for i in range(5)
        )
        ds = Dataset(dmus=records, input_names=("in0",), output_names=("out0",))
        col = summarize(ds).columns[0]
        assert col.stdev == 0.0
        assert col.minimum == col.maximum == 7.0

    def test_single_row_flagged(self):
        ds = parse_dataset(MINIMAL, ["in0"], ["out0"])
        stats = summarize(ds)
        assert stats.stdev_defined is False
        col = stats.columns[0]
        assert col.minimum == col.mean == col.maximum == 1.0
        assert col.stdev == 0.0

    def test_quartile_ordering(self):
        rng = np.random.default_rng(2)
        records = tuple(
            DmuRecord(id=f"u{i}", name="", inputs=(float(v),), outputs=(1.0,))
            for i, v in enumerate(rng.uniform(1, 100, 17))
        )
        ds = Dataset(dmus=records, input_names=("in0",), output_names=("out0",))
        c = summarize(ds).columns[0]
        assert c.minimum <= c.q1 <= c.median <= c.q3 <= c.maximum
        assert c.stdev >= 0.0


class TestFixture:
    def test_shape(self, airports):
        assert (airports.n, airports.m, airports.s) == (30, 4, 4)

    def test_discrimination_rules(self, airports):
        assert airports.strong_rule is True  # 30 > 3 * 8
        assert airports.weak_rule is True

    def test_group_flags(self, airports):
        assert sum(rec.group for rec in airports.dmus) == 6

    def test_milan_row(self, airports):
        rec = airports.dmus[index_of(airports, "LIN-MXP")]
        assert rec.name == "Milano-Linate-Malpensa"
        assert rec.inputs[0] == 2731.0
        assert rec.outputs[0] == 18.3179

    def test_grosseto_zero_goods(self, airports):
        rec = airports.dmus[index_of(airports, "GRS")]
        assert rec.outputs[airports.output_names.index("GOODS")] == 0.0

    def test_employees_summary(self, airports):
        stats = {c.name: c for c in summarize(airports).columns}
        emp = stats["EMPLOYEES"]
        assert emp.mean == pytest.approx(298.1, abs=0.05)
        assert emp.maximum == 2731.0
        assert emp.stdev == pytest.approx(531.9, abs=0.05)

    def test_runway_median(self, airports):
        stats = {c.name: c for c in summarize(airports).columns}
        assert stats["RUNWAYMT"].median == pytest.approx(2993.0, abs=1e-9)

    def test_round_trip(self, airports):
        text = serialize_dataset(airports)
        again = parse_dataset(text, airports.input_names, airports.output_names)
        assert again == airports
