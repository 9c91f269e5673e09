"""Per-layer metrics and the self-time table of a traced run."""

from __future__ import annotations

from collections import Counter, defaultdict

from arith import median, per_job
from scripts import JOB_KINDS

#: Why a per-layer metric reads 0 on a workload.
ABSENT = {
    "query.": "no app requests in this workload (only hotcrp-scrub runs them)",
    "crypto.": "no EncryptedVault in this workload (only hotcrp-confanon has one)",
    "shard.": "monolithic database (only lobsters-shards goes through repro.shard)",
    "core.recorrelate": "no disguise composed over another's vault entries",
}


def layer_metrics(workload: str, rounds: list[dict], spans: list[tuple], summary: dict, tracer) -> dict:
    jobs = sum(r["rec"].attempted[k] for r in rounds for k in JOB_KINDS)
    requests = sum(r["rec"].attempted["app"] for r in rounds)
    delta: Counter = Counter()
    app: Counter = Counter()
    for r in rounds:
        delta.update(r["delta"])
        app.update(r["rec"].app_counters)

    def self_s(*names: str) -> float:
        return sum(summary[n]["job.self_s"] for n in names if n in summary)

    def total_s(name: str, scope: str = "job") -> float:
        return summary[name][f"{scope}.total_s"] if name in summary else 0.0

    def count(name: str, scope: str = "job") -> float:
        return summary[name][f"{scope}.count"] if name in summary else 0.0

    def pj(value: float) -> float:
        return per_job(value, jobs)

    def per_request(value: float) -> float:
        return value / requests if requests else 0.0

    reveal_ops = {op for op, kind in tracer.job_kinds.items() if kind == "reveal"}
    reruns = sum(1 for s in spans if s[0] == "core.spec_run" and s[4] in reveal_ops)
    reveals = count("core.reveal")
    lookups = delta["plan_hits"] + delta["plan_misses"]
    # The WAL work of disguise jobs alone: app requests commit too.
    job_wal = {k: delta[k] - app[k] for k in ("wal_fsyncs", "wal_bytes", "wal_commits")}
    metrics = {
        "storage.statements_per_job": (pj(delta["statements"] - app["statements"]), "1/job"),
        "storage.rows_examined_per_job": (pj(delta["rows_examined"] - app["rows_examined"]), "rows/job"),
        "storage.read_s_per_job": (pj(self_s("storage.read")), "s/job"),
        "storage.write_s_per_job": (pj(self_s("storage.write", "storage.commit")), "s/job"),
        "plancache.hit_ratio": (delta["plan_hits"] / lookups if lookups else 0.0, "ratio"),
        "plancache.misses_per_job": (pj(delta["plan_misses"]), "1/job"),
        "query.s_per_request": (per_request(total_s("query.run", "app")), "s/request"),
        "query.rows_scanned_per_request": (
            per_request(tracer.rows_iterated_by_app + app["rows_examined"]), "rows/request"
        ),
        "wal.append_s_per_job": (pj(self_s("wal.append")), "s/job"),
        "wal.fsync_s_per_job": (pj(self_s("wal.fsync", "wal.barrier")), "s/job"),
        "wal.fsyncs_per_job": (pj(job_wal["wal_fsyncs"]), "1/job"),
        "wal.bytes_per_commit": (
            job_wal["wal_bytes"] / job_wal["wal_commits"] if job_wal["wal_commits"] else 0.0,
            "B/commit",
        ),
        "vault.write_s_per_job": (pj(self_s("vault.write", "vault.fsync")), "s/job"),
        "vault.read_s_per_job": (pj(self_s("vault.read")), "s/job"),
        "vault.entries_read_per_job": (pj(tracer.vault_entries_read), "1/job"),
        "vault.journal_appends_per_job": (pj(delta["vault_appends"]), "1/job"),
        "vault.fsyncs_per_job": (pj(delta["vault_fsyncs"]), "1/job"),
        "crypto.encrypt_s_per_job": (pj(self_s("crypto.encrypt")), "s/job"),
        "crypto.decrypt_s_per_job": (pj(self_s("crypto.decrypt")), "s/job"),
        "core.reveal_spec_reruns_per_reveal": (reruns / reveals if reveals else 0.0, "1/reveal"),
        "core.reveal_s_per_reveal": (total_s("core.reveal") / reveals if reveals else 0.0, "s/reveal"),
        "core.recorrelate_s_per_job": (pj(total_s("core.recorrelate")), "s/job"),
        "core.spec_run_s_per_job": (pj(total_s("core.spec_run")), "s/job"),
        "service.queue_wait_ms": (
            median(tracer.queue_waits) * 1e3 if tracer.queue_waits else 0.0, "ms"
        ),
        "service.queue_s_per_job": (pj(self_s("service.queue", "service.fsync")), "s/job"),
        "service.lock_acquisitions_per_job": (pj(count("service.lock")), "1/job"),
        "service.lock_s_per_job": (pj(self_s("service.lock")), "s/job"),
        "shard.routed_reads_per_job": (pj(delta["routed_reads"]), "1/job"),
        "shard.scatter_reads_per_job": (pj(delta["scatter_reads"]), "1/job"),
        "shard.fanout_writes_per_job": (pj(delta["fanout_writes"]), "1/job"),
        "shard.s_per_job": (pj(self_s("shard.read", "shard.write", "shard.commit")), "s/job"),
    }
    for name, (value, _unit) in metrics.items():
        if value == 0:
            reason = next((why for prefix, why in ABSENT.items() if name.startswith(prefix)), None)
            if name == "shard.fanout_writes_per_job" and workload == "lobsters-shards":
                reason = "no write touched a replicated (global) table"
            print(f"{workload:16s} {name:40s} absent: {reason or 'no such work was traced'}")
    return metrics


def print_self_time_table(workload: str, summary: dict) -> None:
    """Self time and span count per layer (the part of a span name before
    the first dot), over every traced round of the run."""
    layer_s: dict[str, float] = defaultdict(float)
    layer_n: Counter = Counter()
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        layer_s[layer] += row["job.self_s"] + row["app.self_s"]
        layer_n[layer] += row["job.count"] + row["app.count"]
    total = sum(layer_s.values()) or 1.0
    print(f"{workload}: self time by layer (traced rounds; client self time is waiting on the worker)")
    print(f"  {'layer':10s} {'spans':>9s} {'self s':>10s} {'share':>7s}")
    for layer, seconds in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {layer_n[layer]:9.0f} {seconds:10.3f} {seconds / total:7.1%}")
