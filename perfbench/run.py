"""End-to-end benchmark of the disguising engine on the paper's workloads.

    python3 perfbench/run.py --workload hotcrp-scrub --seed 1 --seconds 10 --trace 0

Workloads: ``hotcrp-scrub``, ``hotcrp-confanon``, ``lobsters-shards``
(see README.md). A run builds its seeded world from source, repeats the
workload's fixed script in whole rounds (each on a fresh world) until
``--seconds`` of timed work have passed, checks the outcome with
independent oracles, and prints every metric by name with its unit. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run
alternates untraced and traced rounds, so it also reports the tracing
overhead, and writes its spans to ``.perfbench/spans-<workload>-s<seed>.jsonl``.
The gated timings are process CPU times at a reference CPU speed (see
calib.py); wall-clock timings are printed as measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("hotcrp-scrub", "hotcrp-confanon", "lobsters-shards")
SETUP_REPEATS = 3      # worlds built per run; setup_s is their median
LOGIN_CHECKS = 40      # scrubbed users whose login is tried after the run


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin str hashing (ConfAnon's email tokens, set order) so a seed
        # names the same inputs in every process.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro  # fails here when the program's source is absent

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = Run(args, workdir).execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stray = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if stray:
        raise RuntimeError(f"threads still running at exit: {stray}")
    print(json.dumps(result))
    return 0


class Run:
    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        from scripts import SCRIPTS

        self.args = args
        self.workload = args.workload
        self.seed = args.seed
        self.workdir = workdir
        self.script = SCRIPTS[args.workload]
        self.setups: list[tuple[float, float, list[float]]] = []  # (wall s, CPU s, kernel s)
        self.rounds: list[dict] = []
        self._worlds = 0

    def fresh_world(self):
        from calib import around
        from worlds import build

        self._worlds += 1
        before = around()
        cpu = time.process_time()
        start = time.perf_counter()
        world = build(self.workload, self.seed, self.workdir / f"world{self._worlds}")
        wall = time.perf_counter() - start
        self.setups.append((wall, time.process_time() - cpu, before + around()))
        return world

    def discard(self, world) -> None:
        world.close()
        shutil.rmtree(world.workdir, ignore_errors=True)
        # Free the old world now, so peak memory does not depend on when
        # the cycle collector happens to run.
        gc.collect()

    def execute(self) -> dict:
        from scripts import Recorder
        from tracing import Tracer

        for _ in range(SETUP_REPEATS - 1):
            self.discard(self.fresh_world())
        tracer = Tracer() if self.args.trace else None
        timed = 0.0
        world = None
        while True:
            traced = bool(self.args.trace) and len(self.rounds) % 2 == 1
            if world is not None:
                self.discard(world)
            world = self.fresh_world()
            rec = Recorder(world, tracer if traced else None)
            before = counters(world)
            start = time.perf_counter()
            if traced:
                with tracer.installed():
                    facts = self.script(world, self.seed, rec)
            else:
                facts = self.script(world, self.seed, rec)
            seconds = time.perf_counter() - start
            delta = counters(world) - before
            delta["vault_bytes"] = vault_bytes(world)
            self.rounds.append(
                {"rec": rec, "facts": facts, "seconds": seconds, "delta": delta, "traced": traced}
            )
            timed += seconds
            kinds_done = {r["traced"] for r in self.rounds}
            if timed >= self.args.seconds and (not self.args.trace or kinds_done == {False, True}):
                break
        world.close()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        recovery_s, recovered = self.recover(world)
        problems = self.check(world, recovered)
        for line in problems[:20]:
            print(f"CHECK FAILED: {line}", file=sys.stderr)
        attempted = sum(sum(r["rec"].attempted.values()) for r in self.rounds)
        failed = sum(sum(r["rec"].failed.values()) for r in self.rounds)
        self.print_counts()
        if self.args.trace:
            metrics = self.per_layer(tracer)
        else:
            metrics = self.end_to_end(recovery_s)
        for name, metric in metrics.items():
            print(f"{self.workload:16s} {name:40s} {metric['value']:>14.6g} {metric['unit']}")
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }

    # -- recovery and checks -----------------------------------------------------

    def recover(self, world):
        from worlds import recover

        # Recovery normally runs in a fresh process; keep the collector
        # from walking this process's live worlds while it is timed.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        recovered = recover(world)
        seconds = time.perf_counter() - start
        gc.unfreeze()
        return seconds, recovered

    def check(self, world, recovered) -> list[str]:
        import checks
        from worlds import dataset, seeded

        from repro.apps.hotcrp import workload as hotcrp_app
        from repro.apps.hotcrp.schema import SCHEMA_DDL as HOTCRP_DDL
        from repro.apps.lobsters.schema import SCHEMA_DDL as LOBSTERS_DDL

        problems = [p for r in self.rounds for p in r["rec"].problems]
        facts = self.rounds[-1]["facts"]
        live = list(world.db.shards) if world.sharded else [world.db]
        problems += checks.recovery_problems(recovered, live)
        lobsters = self.workload == "lobsters-shards"
        keys = checks.parse_keys(LOBSTERS_DDL if lobsters else HOTCRP_DDL)
        final = checks.snapshot_rows(live, keys)
        original = checks.snapshot_rows([dataset(self.workload, self.seed)], keys)
        problems += checks.fk_problems(final, keys)
        if self.workload == "hotcrp-confanon":
            return problems + checks.table_differences(original, final, keys.primary)
        user_table = "users" if lobsters else "ContactInfo"
        scrubbed = facts["scrubbed"]
        problems += checks.scrub_problems(final, keys, user_table, scrubbed)
        problems += checks.reveal_problems(
            final, original, keys, user_table, facts["revealed"], scrubbed
        )
        if lobsters:
            return problems + checks.placement_problems(
                live, keys, user_table, facts["users"]
            )
        expected = len(original["PaperReview"]) + facts["reviews_submitted"]
        if len(final["PaperReview"]) != expected:
            problems.append(
                f"{len(final['PaperReview'])} reviews retained, expected {expected}"
            )
        for uid in facts["revealed"]:
            if final["ContactInfo"].get(uid) != original["ContactInfo"][uid]:
                problems.append(f"revealed ContactInfo.{uid} differs from the original")
        # login scans all of ContactInfo, so a seeded sample keeps this short.
        for uid in seeded(self.seed, "login-check").sample(sorted(scrubbed), LOGIN_CHECKS):
            who = facts["contacts"][uid]
            if hotcrp_app.login(world.db, who["email"], who["password"]) is not None:
                problems.append(f"scrubbed user {uid} can still log in")
        return problems

    # -- reporting ---------------------------------------------------------------

    def print_counts(self) -> None:
        attempted: Counter = Counter()
        failed: Counter = Counter()
        for r in self.rounds:
            attempted.update(r["rec"].attempted)
            failed.update(r["rec"].failed)
        print(f"{self.workload}: {len(self.rounds)} round(s), seed {self.seed}")
        for kind in sorted(attempted):
            print(f"{self.workload:16s} ops.{kind:36s} attempted {attempted[kind]:6d} failed {failed[kind]:4d}")
        errors = Counter(e.split(":", 1)[1].strip()[:160] for r in self.rounds for e in r["rec"].errors)
        for error, n in errors.items():
            print(f"{self.workload:16s} failure x{n}: {error}")

    def timings(self, traced: bool, cpu: bool) -> tuple[dict[str, list[float]], float]:
        """Seconds of each successful operation by kind, and operations
        completed per second with an operation outstanding, over the
        traced or the untraced rounds. With ``cpu`` the seconds are the
        process's CPU time at the reference speed (see calib.py), else
        wall time as measured."""
        from calib import local_scales

        latency: dict[str, list[float]] = defaultdict(list)
        busy = 0.0
        done = 0
        for r in self.rounds:
            if r["traced"] != traced:
                continue
            rec = r["rec"]
            scales = local_scales(rec.speed) if cpu else [1.0] * len(rec.ops)
            for (kind, wall, cpu_s, ok), k in zip(rec.ops, scales):
                seconds = (cpu_s if cpu else wall) * k
                busy += seconds
                if ok:
                    latency[kind].append(seconds)
                    done += 1
        return latency, done / busy

    def end_to_end(self, recovery_s: float) -> dict:
        from arith import median, per_job, percentile
        from calib import scale
        from scripts import JOB_KINDS

        rounds = [r for r in self.rounds if not r["traced"]]
        total = Counter()
        for r in rounds:
            total.update(r["delta"])
            total.subtract(r["rec"].app_counters)
        jobs = sum(r["rec"].attempted[k] for r in rounds for k in JOB_KINDS)
        cpu, ops_per_cpu_s = self.timings(traced=False, cpu=True)
        metrics = {
            "setup_s": (median([cpu * scale(k) for _wall, cpu, k in self.setups]), "s"),
            "ops_per_cpu_s": (ops_per_cpu_s, "1/s"),
            "apply_cpu_ms": (percentile(cpu["apply"], 50) * 1e3, "ms"),
            "reveal_cpu_ms": (percentile(cpu["reveal"], 50) * 1e3, "ms"),
            "wal_bytes_per_job": (per_job(total["wal_bytes"], jobs), "B/job"),
            "vault_bytes_per_job": (per_job(total["vault_bytes"], jobs), "B/job"),
            "fsyncs_per_job": (
                per_job(total["wal_fsyncs"] + total["vault_fsyncs"] + total["queue_events"], jobs),
                "1/job",
            ),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
        }
        # Printed, not part of the JSON result: wall-clock timings as
        # measured (this machine's disk and CPU make them spread too far
        # to gate; see README.md) and figures of one workload only.
        wall, ops_per_s = self.timings(traced=False, cpu=False)
        extra = {
            "speed.kernel_ms": (median([s for r in rounds for s in r["rec"].speed]) * 1e3, "ms"),
            "setup_wall_s": (median([wall for wall, _cpu, _k in self.setups]), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "apply_p50_ms": (percentile(wall["apply"], 50) * 1e3, "ms"),
            "apply_p90_ms": (percentile(wall["apply"], 90) * 1e3, "ms"),
            "reveal_p50_ms": (percentile(wall["reveal"], 50) * 1e3, "ms"),
            "recovery_s": (recovery_s, "s"),
        }
        if wall["app"]:
            extra["app_p50_ms"] = (percentile(wall["app"], 50) * 1e3, "ms")
            extra["app_p90_ms"] = (percentile(wall["app"], 90) * 1e3, "ms")
            extra["app_cpu_ms"] = (percentile(cpu["app"], 50) * 1e3, "ms")
        for kind, name in (("bulk_apply", "confanon_apply_s"), ("bulk_reveal", "confanon_reveal_s")):
            if wall[kind]:
                extra[name] = (median(wall[kind]), "s")
        for name, (value, unit) in extra.items():
            print(f"{self.workload:16s} {name:40s} {value:>14.6g} {unit}")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    def per_layer(self, tracer) -> dict:
        from layers import layer_metrics, print_self_time_table
        from tracing import summarize

        traced = [r for r in self.rounds if r["traced"]]
        spans = tracer.spans()
        path = OUT / f"spans-{self.workload}-s{self.seed}.jsonl"
        written = tracer.write(path)
        print(f"{self.workload}: wrote {written} spans to {path.relative_to(ROOT)}")
        summary = summarize(spans)
        print_self_time_table(self.workload, summary)
        metrics = layer_metrics(self.workload, traced, spans, summary, tracer)
        overhead = self.timings(traced=False, cpu=True)[1] / self.timings(traced=True, cpu=True)[1]
        metrics["trace.overhead_x"] = (overhead, "x")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def counters(world) -> Counter:
    """Durability counters of a live world, summed over shards."""
    return Counter(
        wal_bytes=sum(wal.bytes_written for wal in world.wals),
        wal_fsyncs=sum(wal.syncs for wal in world.wals),
        wal_commits=sum(wal.commits_appended for wal in world.wals),
        vault_fsyncs=sum(store.syncs for store in world.vault_stores),
        vault_appends=sum(store.appends for store in world.vault_stores),
        queue_events=_lines(world.service.queue.path),
        lock_acquisitions=world.service.locks.stats.acquisitions,
        **layer_counters(world),
    )


def layer_counters(world) -> dict:
    db = world.db
    engines = list(db.shards) if world.sharded else [db]
    out = {
        "statements": db.stats.statements,
        "rows_examined": sum(e.table(t).rows_examined for e in engines for t in e.table_names),
        "plan_hits": sum(e.plans.hits for e in engines),
        "plan_misses": sum(e.plans.misses for e in engines),
    }
    if world.sharded:
        out.update(
            routed_reads=db.routed_reads,
            scatter_reads=db.scatter_reads,
            fanout_writes=db.fanout_writes,
        )
    return out


def _lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle)


def vault_bytes(world) -> int:
    """Bytes the vault journals hold on disk."""
    return sum(
        f.stat().st_size
        for store in world.vault_stores
        for f in Path(store.directory).rglob("*")
        if f.is_file()
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
