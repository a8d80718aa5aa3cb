import numpy as np
import pytest

from vecfdp.abundance import (
    AbundanceTable,
    IngestError,
    ants_table,
    from_counts,
    ingest,
)

from oracles import write_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_toy_file(tmp_path):
    path = write(tmp_path, "species,count_1,count_2\na,2,1\nb,2,0\nc,0,3\n")
    table = ingest(path)
    assert table.summary() == {"n1": 4, "n2": 4, "r1": 2, "r2": 2, "r": 3,
                               "t": 1, "r1_star": 1, "r2_star": 1}


def test_ingest_rejects_all_zero_row(tmp_path):
    path = write(tmp_path, "species,count_1,count_2\na,1,1\nx,0,0\n")
    with pytest.raises(IngestError, match=":3"):
        ingest(path)


def test_ingest_rejects_duplicate_label(tmp_path):
    path = write(tmp_path, "species,count_1,count_2\na,1,1\na,2,0\n")
    with pytest.raises(IngestError, match="duplicate"):
        ingest(path)


def test_ingest_rejects_bad_header(tmp_path):
    path = write(tmp_path, "name,count_1,count_2\na,1,1\n")
    with pytest.raises(IngestError, match="header"):
        ingest(path)


def test_ingest_rejects_non_integer(tmp_path):
    path = write(tmp_path, "species,count_1,count_2\na,1.5,1\n")
    with pytest.raises(IngestError, match="integer"):
        ingest(path)
    path = write(tmp_path, "species,count_1,count_2\na,-1,1\n", "neg.csv")
    with pytest.raises(IngestError, match=">= 0"):
        ingest(path)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(IngestError, match="no such file"):
        ingest(tmp_path / "absent.csv")


def test_round_trip(tmp_path):
    table = from_counts(["a", "b", "c"], [3, 0, 2], [1, 4, 0])
    path = tmp_path / "out.csv"
    write_csv(table, path)
    again = ingest(path)
    assert again.labels == table.labels
    assert np.array_equal(again.counts1, table.counts1)
    assert np.array_equal(again.counts2, table.counts2)


def test_from_counts_drop_empty():
    table = from_counts(["a", "b", "c"], [1, 0, 0], [0, 0, 2],
                        drop_empty=True)
    assert table.labels == ("a", "c")


def test_table_validation():
    with pytest.raises(IngestError):
        AbundanceTable(labels=("a", "b"), counts1=np.array([1, 0]),
                       counts2=np.array([1, 0]))
    with pytest.raises(IngestError):
        AbundanceTable(labels=("a", "a"), counts1=np.array([1, 1]),
                       counts2=np.array([1, 1]))


def test_ants_dataset_summary():
    table = ants_table()
    assert table.summary() == {"n1": 934, "n2": 2235, "r1": 17, "r2": 23,
                               "r": 30, "t": 10, "r1_star": 7, "r2_star": 13}
