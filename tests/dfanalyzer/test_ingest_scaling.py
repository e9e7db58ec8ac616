"""Regression guard: task upserts must not scan the ``tasks`` table.

Every task end used to resolve its row with ``Table.update_where``,
which builds a dict for every row, so ingest cost grew with the square
of the history (the Table IX fan-in spent most of its host time there).
The guard counts calls instead of timing them, so it is deterministic.
"""

from repro.dfanalyzer import DfAnalyzerService, Table


def test_task_upserts_make_no_row_scans(monkeypatch):
    calls = {"row": 0, "update_where": 0}
    row, update_where = Table.row, Table.update_where

    def counted_row(self, index):
        calls["row"] += 1
        return row(self, index)

    def counted_update_where(self, predicate, changes):
        calls["update_where"] += 1
        return update_where(self, predicate, changes)

    monkeypatch.setattr(Table, "row", counted_row)
    monkeypatch.setattr(Table, "update_where", counted_update_where)

    service = DfAnalyzerService()
    flows, tasks_per_flow = 4, 100
    for tid in range(tasks_per_flow):
        for f in range(flows):
            service.ingest({"type": "task", "dataflow_tag": f"flow{f}",
                            "task_id": tid, "status": "RUNNING", "time": 0.0})
    for tid in reversed(range(tasks_per_flow)):
        for f in range(flows):
            service.ingest({"type": "task", "dataflow_tag": f"flow{f}",
                            "task_id": tid, "status": "FINISHED", "time": 1.0})

    assert calls == {"row": 0, "update_where": 0}
    tasks = service.store.table("tasks")
    assert len(tasks) == flows * tasks_per_flow
    assert set(tasks.column("status")) == {"FINISHED"}
