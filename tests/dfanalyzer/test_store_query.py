"""Tests for the column store and query engine."""

import pytest

from repro.dfanalyzer import (
    ColumnStore,
    DfAnalyzerService,
    IngestError,
    Query,
    QueryError,
    StoreError,
    Table,
)


def seeded_store():
    store = ColumnStore()
    tasks = store.create_table("tasks", ["task_id", "status", "duration"])
    for i in range(6):
        tasks.insert({"task_id": i, "status": "FINISHED" if i % 2 else "RUNNING",
                      "duration": float(i)})
    metrics = store.create_table("metrics", ["task_id", "accuracy", "lr"])
    for i in range(6):
        metrics.insert({"task_id": i, "accuracy": 0.5 + 0.08 * i, "lr": 0.1 if i < 3 else 0.01})
    return store


# -- Table ---------------------------------------------------------------


def test_insert_and_row_roundtrip():
    t = Table("t", ["a", "b"])
    rid = t.insert({"a": 1, "b": 2})
    assert rid == 0
    assert t.row(0) == {"a": 1, "b": 2}
    assert len(t) == 1


def test_dynamic_schema_backfills_nulls():
    t = Table("t")
    t.insert({"a": 1})
    t.insert({"a": 2, "b": 20})
    assert t.row(0) == {"a": 1, "b": None}
    assert t.row(1) == {"a": 2, "b": 20}


def test_missing_columns_are_null():
    t = Table("t", ["a", "b"])
    t.insert({"a": 5})
    assert t.row(0)["b"] is None


def test_column_access_and_errors():
    t = Table("t", ["a"])
    t.insert({"a": 3})
    assert t.column("a") == [3]
    with pytest.raises(StoreError):
        t.column("zzz")
    with pytest.raises(IndexError):
        t.row(5)


def test_column_array_is_numpy():
    import numpy as np

    t = Table("t", ["x"])
    t.insert_many({"x": float(i)} for i in range(4))
    arr = t.column_array("x")
    assert isinstance(arr, np.ndarray)
    assert arr.sum() == 6.0


def test_update_where():
    t = Table("t", ["id", "status"])
    t.insert({"id": 1, "status": "RUNNING"})
    t.insert({"id": 2, "status": "RUNNING"})
    updated = t.update_where(lambda r: r["id"] == 2, {"status": "DONE"})
    assert updated == 1
    assert t.row(1)["status"] == "DONE"
    assert t.row(0)["status"] == "RUNNING"


def test_update_where_without_match_changes_nothing():
    t = Table("t", ["id", "status"])
    t.insert({"id": 1, "status": "RUNNING"})
    assert t.update_where(lambda r: r["id"] == 9, {"status": "DONE"}) == 0
    assert t.row(0)["status"] == "RUNNING"


# -- Table indexes ---------------------------------------------------------


def test_update_by_updates_every_row_under_a_shared_key_in_order():
    t = Table("t", ["flow", "id", "status"])
    for flow, tid in [("a", 0), ("b", 0), ("a", 0), ("a", 1), ("a", 0)]:
        t.insert({"flow": flow, "id": tid, "status": "RUNNING"})
    t.create_index("flow", "id")
    assert t.lookup(("flow", "id"), ("a", 0)) == [0, 2, 4]  # ascending
    assert t.update_by(("flow", "id"), ("a", 0), {"status": "DONE"}) == 3
    assert t.column("status") == ["DONE", "RUNNING", "DONE", "RUNNING", "DONE"]


def test_create_index_on_a_table_with_rows():
    t = Table("t", ["flow", "id"])
    t.insert_many({"flow": "f", "id": i % 3} for i in range(7))
    t.create_index("flow", "id")
    assert t.lookup(("flow", "id"), ("f", 0)) == [0, 3, 6]
    assert t.lookup(("flow", "id"), ("f", 1)) == [1, 4]
    t.insert({"flow": "f", "id": 1})
    assert t.lookup(("flow", "id"), ("f", 1)) == [1, 4, 7]
    assert t.lookup(("flow", "id"), ("g", 1)) == []


def test_create_index_on_a_new_column_backfills_null_keys():
    t = Table("t", ["a"])
    t.insert({"a": 1})
    t.create_index("b")
    assert t.column("b") == [None]
    t.insert({"a": 2, "b": "x"})
    assert t.lookup(("b",), (None,)) == [0]
    assert t.lookup(("b",), ("x",)) == [1]


def test_update_where_on_an_indexed_column_keeps_the_index_consistent():
    t = Table("t", ["flow", "id", "status"])
    for i in range(6):
        t.insert({"flow": "old" if i % 2 else "new", "id": 0, "status": "RUNNING"})
    t.create_index("flow", "id")
    moved = t.update_where(lambda r: r["flow"] == "old", {"flow": "new"})
    assert moved == 3
    assert t.lookup(("flow", "id"), ("old", 0)) == []
    assert t.lookup(("flow", "id"), ("new", 0)) == [0, 1, 2, 3, 4, 5]
    assert t.update_by(("flow", "id"), ("new", 0), {"status": "DONE"}) == 6
    assert set(t.column("status")) == {"DONE"}


def test_update_by_on_an_indexed_column_moves_rows_to_the_new_key():
    t = Table("t", ["k", "v"])
    t.insert_many({"k": k, "v": i} for i, k in enumerate("abab"))
    t.create_index("k")
    assert t.update_by(("k",), ("a",), {"k": "b"}) == 2
    assert t.lookup(("k",), ("a",)) == []
    assert t.lookup(("k",), ("b",)) == [0, 1, 2, 3]


def test_update_by_missing_key_updates_nothing():
    t = Table("t", ["k"])
    t.create_index("k")
    t.insert({"k": 1})
    assert t.update_by(("k",), (2,), {"v": "x"}) == 0
    assert t.row(0) == {"k": 1, "v": None}


@pytest.mark.parametrize(
    "stored, probe, matches",
    [
        (None, None, True),
        (None, 0, False),
        (None, "", False),
        (0, 0, True),
        (1, 1.0, True),  # 1 == 1.0, as in an equality scan
        (1, True, True),
        (1, "1", False),
        ("1", "1", True),
        ("a", "A", False),
    ],
)
def test_index_keys_match_exactly_as_equality(stored, probe, matches):
    t = Table("t", ["k"])
    t.insert({"k": stored})
    t.create_index("k")
    by_scan = [i for i, r in enumerate(t.rows()) if r["k"] == probe]
    assert t.lookup(("k",), (probe,)) == by_scan == ([0] if matches else [])


def test_unknown_index_is_a_store_error():
    t = Table("t", ["k"])
    with pytest.raises(StoreError):
        t.update_by(("k",), (1,), {"k": 2})
    with pytest.raises(ValueError):
        t.create_index()


def test_unhashable_key_is_rejected_before_the_row_is_written():
    t = Table("t", ["k"])
    t.create_index("k")
    with pytest.raises(TypeError):
        t.insert({"k": [1, 2]})
    assert len(t) == 0 and t.column("k") == []


def task_record(flow, tid, status, time):
    return {"type": "task", "dataflow_tag": flow, "task_id": tid,
            "transformation_tag": "t", "status": status, "time": time}


def test_task_end_before_begin_inserts_a_finished_row():
    service = DfAnalyzerService()
    service.ingest(task_record("f", 3, "FINISHED", 2.0))
    service.ingest(task_record("f", 3, "RUNNING", 1.0))
    rows = service.query("tasks").rows()
    assert [(r["status"], r["time_begin"], r["time_end"]) for r in rows] == [
        ("FINISHED", None, 2.0),
        ("RUNNING", 1.0, None),
    ]


def test_task_end_updates_every_row_sharing_its_key():
    service = DfAnalyzerService()
    for _ in range(3):  # fan-in devices reuse one dataflow tag and task id
        service.ingest(task_record("f", 0, "RUNNING", 0.0))
    service.ingest(task_record("g", 0, "RUNNING", 0.0))
    service.ingest(task_record("f", 0, "FINISHED", 1.0))
    tasks = service.store.table("tasks")
    assert tasks.column("status") == ["FINISHED"] * 3 + ["RUNNING"]
    assert tasks.column("time_end") == [1.0] * 3 + [None]


def test_unhashable_task_key_is_an_ingest_error():
    service = DfAnalyzerService()
    with pytest.raises(IngestError):
        service.ingest(task_record("f", [1], "RUNNING", 0.0))
    assert len(service.store.table("tasks")) == 0


def test_store_table_management():
    store = ColumnStore()
    store.create_table("x")
    assert "x" in store
    assert store.table_names == ["x"]
    with pytest.raises(ValueError):
        store.create_table("x")
    store.drop_table("x")
    assert "x" not in store
    with pytest.raises(StoreError):
        store.table("x")
    with pytest.raises(StoreError):
        store.drop_table("x")


def test_ensure_table_idempotent():
    store = ColumnStore()
    a = store.ensure_table("t")
    b = store.ensure_table("t")
    assert a is b


# -- Query ---------------------------------------------------------------


def test_where_filters():
    store = seeded_store()
    rows = Query(store, "tasks").where("status", "==", "FINISHED").rows()
    assert [r["task_id"] for r in rows] == [1, 3, 5]


def test_where_comparison_ops():
    store = seeded_store()
    q = Query(store, "tasks")
    assert Query(store, "tasks").where("duration", ">", 3.0).count() == 2
    assert Query(store, "tasks").where("duration", "<=", 1.0).count() == 2
    assert Query(store, "tasks").where("task_id", "in", [0, 5]).count() == 2


def test_where_unknown_operator():
    store = seeded_store()
    with pytest.raises(QueryError):
        Query(store, "tasks").where("a", "~=", 1)


def test_where_skips_nulls_and_incomparables():
    store = ColumnStore()
    t = store.create_table("t", ["v"])
    t.insert({"v": 1})
    t.insert({"v": None})
    t.insert({"v": "string"})
    rows = Query(store, "t").where("v", ">", 0).rows()
    assert len(rows) == 1


def test_select_projects():
    store = seeded_store()
    rows = Query(store, "tasks").select("task_id").limit(2).rows()
    assert rows == [{"task_id": 0}, {"task_id": 1}]


def test_order_by_and_limit():
    store = seeded_store()
    rows = Query(store, "tasks").order_by("duration", desc=True).limit(3).rows()
    assert [r["duration"] for r in rows] == [5.0, 4.0, 3.0]


def test_order_by_sorts_nulls_last():
    store = ColumnStore()
    t = store.create_table("t", ["v"])
    t.insert({"v": 2})
    t.insert({"v": None})
    t.insert({"v": 1})
    rows = Query(store, "t").order_by("v").rows()
    assert [r["v"] for r in rows] == [1, 2, None]


def test_join_merges_matching_rows():
    store = seeded_store()
    rows = (
        Query(store, "tasks")
        .where("status", "==", "FINISHED")
        .join("metrics", on=("task_id", "task_id"), prefix="m_")
        .rows()
    )
    assert len(rows) == 3
    assert all("m_accuracy" in r for r in rows)


def test_join_inner_semantics():
    store = seeded_store()
    store.table("metrics").insert({"task_id": 99, "accuracy": 1.0, "lr": 0.5})
    rows = Query(store, "tasks").join("metrics", on=("task_id", "task_id")).rows()
    assert all(r["task_id"] != 99 for r in rows)


def test_group_by_aggregates():
    store = seeded_store()
    rows = (
        Query(store, "metrics")
        .group_by("lr", aggregate={"best": ("max", "accuracy"), "n": ("count", "accuracy")})
        .rows()
    )
    by_lr = {r["lr"]: r for r in rows}
    assert by_lr[0.1]["n"] == 3
    assert by_lr[0.1]["best"] == pytest.approx(0.66)
    assert by_lr[0.01]["best"] == pytest.approx(0.9)


def test_group_by_unknown_aggregate():
    store = seeded_store()
    with pytest.raises(QueryError):
        Query(store, "metrics").group_by("lr", aggregate={"x": ("median", "accuracy")})


def test_scalars_shortcut():
    store = seeded_store()
    values = Query(store, "tasks").where("task_id", "<", 2).scalars("duration")
    assert values == [0.0, 1.0]


def test_limit_validation_and_empty_select():
    store = seeded_store()
    with pytest.raises(QueryError):
        Query(store, "tasks").limit(-1)
    with pytest.raises(QueryError):
        Query(store, "tasks").select()


def test_query_pipeline_is_reusable_lazily():
    store = seeded_store()
    q = Query(store, "tasks").where("status", "==", "RUNNING")
    n_before = q.count()
    store.table("tasks").insert({"task_id": 10, "status": "RUNNING", "duration": 0.0})
    assert q.count() == n_before + 1  # evaluated against live data
