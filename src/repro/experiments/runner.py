"""Process-sharded experiment executor with a resumable artifact store.

The registry's experiments are independent pure functions of their parameters
(every random draw is seeded through ``params``), so ``repro-star run all``
shards perfectly: each ``(experiment, profile, params)`` triple becomes one
:class:`Shard`, shards fan out over a ``ProcessPoolExecutor`` (``--jobs N``)
and each finished shard is written to an :class:`~repro.experiments.artifacts.
ArtifactStore` as soon as it completes, so an interrupted run resumes where it
stopped -- shards whose content-addressed key is already on disk are served
from the store without re-running.

Parity contract
---------------
The serial engine (``jobs=1``, no worker processes) is the reference: for the
same shards, :func:`run_shards` with ``jobs > 1`` produces *bit-identical*
payloads, and :meth:`RunReport.payloads` aggregates them in shard order into
exactly the list the serial ``repro-star run --json`` path emits
(``tests/experiments/test_artifacts_and_runner.py`` holds the contract).

Failure model
-------------
Monte-Carlo campaigns run thousands of shards; the runner must outlive
individual worker crashes, hangs and damaged artifacts instead of dying with
a traceback:

* **Retries.** A shard whose ``run()`` raises is retried up to *max_retries*
  times with exponential backoff; a shard that exhausts its budget lands on
  :attr:`RunReport.failed` (with its attempt count and last error) while the
  rest of the campaign continues.
* **Worker death.** When a worker process dies (SIGKILL, OOM, segfault) the
  broken pool is shut down and respawned, and the shards that were in flight
  are re-enqueued.  Blame cannot be attributed (the pool breaks as a whole),
  so worker deaths are budgeted separately from retries -- a shard that
  coincides with more than :data:`MAX_WORKER_DEATHS` pool deaths fails.
* **Timeouts.** With *shard_timeout* set, a shard that exceeds the limit has
  its worker killed (there is no cooperative way to stop a stuck ``run()``),
  the pool is respawned and the timeout is charged to the stuck shard's retry
  budget.  In-process execution (``jobs=1``) cannot preempt itself, so the
  serial engine ignores the timeout.
* **Quarantine.** A store entry that cannot be parsed is renamed to
  ``*.corrupt`` (evidence preserved, address freed) and the shard re-runs; a
  valid-but-stale entry (old schema) is simply re-run and overwritten.

Completed shards persist to the store immediately in every mode, so a crashed
or partially failed campaign resumes from what it finished.

Chaos hooks
-----------
Fault-injection hooks for the test-suite and the CI chaos smoke job, read
from the environment by :func:`execute_shard` (workers inherit them):

``REPRO_CHAOS_FAIL=<experiment_id>``
    ``run()`` raises ``RuntimeError`` instead of executing (every attempt).
``REPRO_CHAOS_KILL=<experiment_id>``
    A *worker* executing the shard SIGKILLs itself (ignored in the main
    process, so the serial engine and in-process fast path stay alive).
``REPRO_CHAOS_HANG=<experiment_id>``
    The shard sleeps ``REPRO_CHAOS_HANG_SECONDS`` (default 60) first.

``REPRO_CHAOS_KILL_FLAG`` / ``REPRO_CHAOS_HANG_FLAG`` name a sentinel file
created atomically before the first strike, making the kill/hang fire exactly
once across all workers -- the retried attempt then succeeds.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import telemetry
from repro.exceptions import (
    ArtifactCorruptError,
    ArtifactError,
    InvalidParameterError,
)
from repro.experiments.artifacts import (
    ArtifactStore,
    artifact_key,
    build_payload,
    build_record,
    claim_verdict,
    environment_stamp,
    validate_payload,
)
from repro.experiments.registry import get_spec, list_experiments

__all__ = [
    "Shard",
    "ShardFailure",
    "RunReport",
    "MAX_WORKER_DEATHS",
    "RETRY_BACKOFF_S",
    "plan_shards",
    "execute_shard",
    "run_shards",
    "registry_sorted",
]

#: Progress callback: ``(shard, status, elapsed_seconds, record)`` with status
#: one of ``"ran"`` / ``"cached"`` / ``"retry"`` / ``"failed"``, invoked as
#: each shard resolves or is rescheduled.  For ``"ran"``/``"cached"`` the
#: record is the full artifact record; for ``"retry"``/``"failed"`` it is a
#: small ``{"error", "attempts"}`` diagnostic dict (no payload).
ProgressFn = Callable[["Shard", str, float, Dict[str, object]], None]

#: Warning callback for non-fatal store events (quarantines, retries).
WarnFn = Callable[[str], None]

#: Pool deaths a single shard may coincide with before it is failed.  Deaths
#: cannot be blamed on a specific in-flight shard (the pool breaks as a
#: whole), so they are budgeted separately from ``max_retries``; this bound
#: only exists to stop a shard that reliably kills its worker from respawning
#: pools forever.
MAX_WORKER_DEATHS = 3

#: Base of the exponential backoff between attempts of one shard: attempt
#: ``k`` (1-based) is delayed ``RETRY_BACKOFF_S * 2**(k-1)`` seconds.
RETRY_BACKOFF_S = 0.1


@dataclass(frozen=True)
class Shard:
    """One unit of work: a single experiment at resolved parameters.

    Attributes
    ----------
    experiment_id : str
        Registry identifier.
    profile : str
        Profile name the parameters were resolved from.
    params : tuple of (str, object)
        The resolved parameters as a key-sorted tuple of pairs (kept hashable
        and picklable for the process pool; ``dict(shard.params)`` restores
        the mapping).
    key : str
        Content-addressed key of the shard
        (:func:`repro.experiments.artifacts.artifact_key`).
    """

    experiment_id: str
    profile: str
    params: Tuple[Tuple[str, object], ...]
    key: str


@dataclass(frozen=True)
class ShardFailure:
    """One permanently failed shard of a run.

    Attributes
    ----------
    shard : Shard
        The shard that failed.
    attempts : int
        Execution attempts made (including worker deaths and timeouts).
    error : str
        Human-readable description of the *last* failure.
    """

    shard: Shard
    attempts: int
    error: str


def plan_shards(
    experiment_ids: Optional[Sequence[str]] = None,
    profile: str = "default",
    overrides: Optional[Mapping[str, object]] = None,
) -> List[Shard]:
    """Resolve experiment ids into the shard list of one run.

    Parameters
    ----------
    experiment_ids : sequence of str, optional
        Ids to run (case-insensitive); ``None`` (or the single entry
        ``"all"``) selects the whole registry in registry order.
    profile : str, optional
        Named parameter profile applied to every experiment.
    overrides : mapping, optional
        Explicit parameter overrides merged on top of every profile
        (mirrors :func:`repro.experiments.registry.run_experiment`).

    Returns
    -------
    list of Shard
        One shard per requested experiment, in request order, each carrying
        its content-addressed key.
    """
    if experiment_ids is None:
        requested = list_experiments()
    else:
        requested = list(experiment_ids)
        if len(requested) == 1 and str(requested[0]).lower() == "all":
            requested = list_experiments()
    shards = []
    for experiment_id in requested:
        spec = get_spec(experiment_id)
        params = spec.params(profile)
        if overrides:
            params.update(overrides)
        ordered = tuple(sorted(params.items()))
        shards.append(
            Shard(
                experiment_id=spec.experiment_id,
                profile=profile,
                params=ordered,
                key=artifact_key(spec.experiment_id, profile, dict(ordered)),
            )
        )
    return shards


def _chaos_once(flag_env: str) -> bool:
    """Whether a chaos strike gated on *flag_env* should fire now.

    With the env var unset the strike fires every time; with it set to a
    path, the first caller to create the sentinel file (atomically, across
    processes) fires and everyone after skips.
    """
    flag_path = os.environ.get(flag_env)
    if not flag_path:
        return True
    try:
        os.close(os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _chaos_hook(shard: Shard) -> None:
    """Apply the environment-driven fault-injection hooks (see module docs)."""
    experiment_id = shard.experiment_id
    if os.environ.get("REPRO_CHAOS_FAIL") == experiment_id:
        raise RuntimeError(f"chaos hook: forced failure of {experiment_id}")
    if os.environ.get("REPRO_CHAOS_HANG") == experiment_id and _chaos_once(
        "REPRO_CHAOS_HANG_FLAG"
    ):
        time.sleep(float(os.environ.get("REPRO_CHAOS_HANG_SECONDS", "60")))
    if os.environ.get("REPRO_CHAOS_KILL") == experiment_id:
        import multiprocessing

        # Only a pool worker may kill itself; the serial engine and the
        # in-process fast path run in the main process and must survive.
        if multiprocessing.parent_process() is not None and _chaos_once(
            "REPRO_CHAOS_KILL_FLAG"
        ):
            os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))


def execute_shard(
    shard: Shard, environment: Optional[Mapping[str, object]] = None
) -> Dict[str, object]:
    """Run one shard in the current process and return its store record.

    Parameters
    ----------
    shard : Shard
        The shard to run.
    environment : mapping, optional
        Pre-computed environment stamp (computed fresh when omitted, e.g. in
        pool workers).

    Returns
    -------
    dict
        The full artifact record (:func:`repro.experiments.artifacts.
        build_record`): payload plus key, wall-clock and environment stamp.
        The payload is validated against the experiment's declared
        :class:`~repro.experiments.artifacts.ArtifactSchema` before returning.
    """
    _chaos_hook(shard)
    spec = get_spec(shard.experiment_id)
    started = time.perf_counter()
    result = spec.run(**dict(shard.params))
    elapsed = time.perf_counter() - started
    payload = build_payload(shard.profile, dict(shard.params), result)
    validate_payload(payload, spec.schema)
    return build_record(shard.key, payload, elapsed, environment)


@dataclass
class RunReport:
    """Outcome of one :func:`run_shards` call.

    Attributes
    ----------
    shards : list of Shard
        The executed plan, in request order.
    records : list of dict
        One artifact record per *successful* shard, in shard order (failed
        shards leave no record).
    executed : list of str
        Keys that were actually run this call.
    cached : list of str
        Keys served from the artifact store without re-running.
    failed : list of ShardFailure
        Shards that exhausted their retry budget, in shard order.  Their
        completed siblings still persist (graceful degradation); callers
        decide whether a partial campaign is acceptable.
    warnings : list of str
        Non-fatal events of the run (quarantined store entries, retries).
    elapsed_seconds : float
        Wall-clock of the whole call (including pool startup).
    metrics : dict
        Uniform run summary, populated on *every* code path (serial, pool,
        single-shard fast path, and the all-cached path that executes
        nothing): ``shards`` / ``ran`` / ``cached`` / ``failed`` / ``retries``
        counts, the call's ``elapsed_seconds``, and ``shard_timings`` -- one
        ``{experiment, profile, key, status, seconds, attempts}`` entry per
        shard, in shard order (``status`` is ``ran``/``cached``/``failed``;
        ``seconds`` is the shard's own run wall-clock, 0 for cached and
        failed shards).  The same entries are emitted as ``runner.shard``
        telemetry spans when ``REPRO_TRACE`` is active.
    """

    shards: List[Shard]
    records: List[Dict[str, object]]
    executed: List[str] = field(default_factory=list)
    cached: List[str] = field(default_factory=list)
    failed: List[ShardFailure] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    metrics: Dict[str, object] = field(default_factory=dict)

    def payloads(self) -> List[Dict[str, object]]:
        """The aggregated serial-format artifact list, in shard order.

        This list is bit-identical to what the serial ``repro-star run
        --json`` path emits for the same experiments and profile (failed
        shards, if any, are absent from both).
        """
        return [record["payload"] for record in self.records]

    def claims_hold(self) -> bool:
        """Whether every payload reports ``claim_holds`` (missing counts as false)."""
        return all(
            claim_verdict(record["payload"]["summary"]) for record in self.records
        )

    @property
    def ok(self) -> bool:
        """True when no shard failed permanently."""
        return not self.failed


@dataclass
class _Work:
    """Mutable per-shard execution state inside one :func:`run_shards` call."""

    index: int
    shard: Shard
    attempts: int = 0  # failed execution attempts (exceptions + timeouts)
    deaths: int = 0  # pool deaths this shard was in flight for
    deadline: Optional[float] = None  # monotonic deadline of the active attempt


def run_shards(
    shards: Sequence[Shard],
    *,
    jobs: int = 1,
    store: Optional[ArtifactStore] = None,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
    max_retries: int = 1,
    shard_timeout: Optional[float] = None,
    warn: Optional[WarnFn] = None,
) -> RunReport:
    """Execute *shards*, optionally in parallel and against a store.

    Parameters
    ----------
    shards : sequence of Shard
        The plan from :func:`plan_shards`.
    jobs : int, optional
        Worker processes; ``1`` (the default) runs everything in-process --
        the serial parity reference.  With ``jobs > 1`` pending shards fan
        out over a ``ProcessPoolExecutor``.
    store : ArtifactStore, optional
        When given, shards whose key is already present *and* whose stored
        payload still matches the experiment's declared schema are not re-run
        (their records load from disk); stale entries re-run and overwrite,
        corrupt (unparseable) entries are quarantined as ``*.corrupt`` with a
        warning and then re-run.  Every freshly executed shard is written to
        the store as soon as it completes, making interrupted runs resumable.
    force : bool, optional
        Re-run every shard even when its key is present (fresh records still
        overwrite the store).
    progress : callable, optional
        ``progress(shard, status, elapsed, record)`` invoked once per shard
        event, with status ``"cached"``, ``"ran"``, ``"retry"`` or
        ``"failed"``.  With ``jobs=1`` shards resolve strictly in input
        order.
    max_retries : int, optional
        Failed execution attempts (exceptions, timeouts) a shard may retry
        before it is reported on :attr:`RunReport.failed` (default 1), after
        an exponential backoff (:data:`RETRY_BACKOFF_S`).  Pool deaths are
        budgeted separately (:data:`MAX_WORKER_DEATHS`).
    shard_timeout : float, optional
        Wall-clock seconds one shard attempt may run in a worker before its
        worker is killed and the attempt counts as failed.  ``None`` (the
        default) disables the limit.  Only enforceable with worker processes;
        the in-process engine cannot preempt itself and ignores it, so with
        ``jobs > 1`` even a single pending shard runs in a worker.
    warn : callable, optional
        Receives non-fatal diagnostics (quarantines, retries); everything is
        also collected on :attr:`RunReport.warnings`.

    Returns
    -------
    RunReport
        Records aligned with the input shard order regardless of completion
        order, plus executed/cached key lists, permanent failures and total
        wall-clock.  The call does not raise on shard failure -- check
        :attr:`RunReport.failed`.

    Raises
    ------
    InvalidParameterError
        If *jobs*, *max_retries* or *shard_timeout* is outside its domain.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise InvalidParameterError(f"jobs must be a positive integer, got {jobs!r}")
    if not isinstance(max_retries, int) or max_retries < 0:
        raise InvalidParameterError(
            f"max_retries must be a non-negative integer, got {max_retries!r}"
        )
    if shard_timeout is not None and not shard_timeout > 0:
        raise InvalidParameterError(
            f"shard_timeout must be positive (or None), got {shard_timeout!r}"
        )
    started = time.perf_counter()
    records: List[Optional[Dict[str, object]]] = [None] * len(shards)
    failures: Dict[int, ShardFailure] = {}
    timings: Dict[int, Dict[str, object]] = {}  # shard index -> terminal event
    retries = 0
    report = RunReport(shards=list(shards), records=[])

    def _warn(message: str) -> None:
        report.warnings.append(message)
        if warn is not None:
            warn(message)

    def _settle(
        index: int, shard: Shard, status: str, seconds: float, attempts: int
    ) -> None:
        """Record one shard's terminal event (timing table + telemetry span)."""
        timings[index] = {
            "experiment": shard.experiment_id,
            "profile": shard.profile,
            "key": shard.key,
            "status": status,
            "seconds": float(seconds),
            "attempts": attempts,
        }
        telemetry.emit_span(
            "runner.shard",
            float(seconds),
            status=status,
            experiment=shard.experiment_id,
            profile=shard.profile,
            key=shard.key,
            attempts=attempts,
        )

    def _from_store(shard: Shard) -> Optional[Dict[str, object]]:
        """The stored record for *shard*, or None when absent/stale/corrupt.

        The key covers only (experiment, profile, params), so a code change
        that reshapes an experiment's output leaves old artifacts under a
        current key; re-validating the cached payload against the *current*
        declared schema catches those and re-runs instead of serving them.
        Stale entries (schema drift) are re-run and overwritten; corrupt
        entries (unparseable bytes) are quarantined first so the evidence of
        the crashed writer survives.
        """
        if store is None or force or not store.exists(
            shard.experiment_id, shard.profile, shard.key
        ):
            if store is not None:
                telemetry.add_counter(
                    "store.miss", experiment=shard.experiment_id, key=shard.key
                )
            return None
        try:
            record = store.read(shard.experiment_id, shard.profile, shard.key)
            validate_payload(record["payload"], get_spec(shard.experiment_id).schema)
        except ArtifactCorruptError as error:
            quarantined = store.quarantine(
                shard.experiment_id, shard.profile, shard.key, reason=str(error)
            )
            if quarantined is not None:
                _warn(
                    f"quarantined corrupt store entry as {quarantined.name} "
                    f"({error}); re-running {shard.experiment_id}"
                )
            return None
        except ArtifactError:
            # Stale (old schema): safe to re-run and overwrite.
            telemetry.add_counter(
                "store.stale", experiment=shard.experiment_id, key=shard.key
            )
            return None
        telemetry.add_counter(
            "store.hit", experiment=shard.experiment_id, key=shard.key
        )
        return record

    def _finish(
        index: int, shard: Shard, record: Dict[str, object], attempts: int = 1
    ) -> None:
        records[index] = record
        report.executed.append(shard.key)
        if store is not None:
            store.write(record)
        _settle(index, shard, "ran", record["elapsed_seconds"], attempts)
        if progress is not None:
            progress(shard, "ran", record["elapsed_seconds"], record)

    def _serve_cached(index: int, shard: Shard, record: Dict[str, object]) -> None:
        records[index] = record
        report.cached.append(shard.key)
        _settle(index, shard, "cached", 0.0, 0)
        if progress is not None:
            progress(shard, "cached", 0.0, record)

    def _fail(work: _Work, error: str) -> None:
        attempts = work.attempts + work.deaths
        failures[work.index] = ShardFailure(
            shard=work.shard, attempts=attempts, error=error
        )
        _settle(work.index, work.shard, "failed", 0.0, attempts)
        _warn(
            f"shard {work.shard.experiment_id}/{work.shard.profile} failed "
            f"permanently after {attempts} attempt(s): {error}"
        )
        if progress is not None:
            progress(
                work.shard, "failed", 0.0, {"error": error, "attempts": attempts}
            )

    def _note_retry(work: _Work, error: str) -> None:
        nonlocal retries
        retries += 1
        telemetry.add_counter(
            "runner.retry",
            experiment=work.shard.experiment_id,
            profile=work.shard.profile,
            key=work.shard.key,
            error=error,
        )
        _warn(
            f"shard {work.shard.experiment_id}/{work.shard.profile} attempt "
            f"{work.attempts + work.deaths} failed ({error}); retrying"
        )
        if progress is not None:
            progress(
                work.shard,
                "retry",
                0.0,
                {"error": error, "attempts": work.attempts + work.deaths},
            )

    def _backoff_delay(work: _Work) -> float:
        return RETRY_BACKOFF_S * (2 ** max(0, work.attempts - 1))

    def _run_serial(work: _Work, environment: Optional[Mapping[str, object]]) -> None:
        """In-process attempt loop: retries with backoff, no preemption."""
        while True:
            try:
                record = execute_shard(work.shard, environment)
            except Exception as error:  # noqa: BLE001 - the budget re-raises
                work.attempts += 1
                message = f"{type(error).__name__}: {error}"
                if work.attempts > max_retries:
                    _fail(work, message)
                    return
                _note_retry(work, message)
                time.sleep(_backoff_delay(work))
            else:
                _finish(
                    work.index,
                    work.shard,
                    record,
                    attempts=work.attempts + work.deaths + 1,
                )
                return

    def _run_pool(pending: deque) -> None:
        """Fan pending work over a worker pool, surviving crashes and hangs.

        At most *jobs* shards are in flight at any time (windowed submission
        keeps each attempt's deadline honest); retries re-enter through a
        delay queue; a broken or killed pool is respawned and its in-flight
        work re-enqueued.
        """
        delayed: List[Tuple[float, _Work]] = []
        in_flight: Dict[Future, _Work] = {}
        pool: Optional[ProcessPoolExecutor] = None

        def _requeue_after_death(work: _Work) -> None:
            work.deadline = None
            work.deaths += 1
            if work.deaths > MAX_WORKER_DEATHS:
                _fail(
                    work,
                    f"worker process died {work.deaths} times while this "
                    "shard was in flight",
                )
            else:
                _note_retry(work, "worker process died")
                pending.append(work)

        def _attempt_failed(work: _Work, message: str) -> None:
            work.deadline = None
            work.attempts += 1
            if work.attempts > max_retries:
                _fail(work, message)
            else:
                _note_retry(work, message)
                delayed.append((time.monotonic() + _backoff_delay(work), work))

        def _kill_pool_workers() -> None:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except (OSError, ValueError):  # pragma: no cover - racing exit
                    pass

        try:
            while pending or delayed or in_flight:
                now = time.monotonic()
                if delayed:
                    still_delayed = []
                    for ready_at, work in delayed:
                        if ready_at <= now:
                            pending.append(work)
                        else:
                            still_delayed.append((ready_at, work))
                    delayed = still_delayed
                while pending and len(in_flight) < jobs:
                    work = pending.popleft()
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=jobs)
                    try:
                        future = pool.submit(execute_shard, work.shard)
                    except BrokenProcessPool:
                        # A worker died since the last submit.  This shard
                        # never ran: put it back uncharged.  The dead
                        # in-flight futures below respawn the pool; with
                        # none left, drop it here.
                        pending.appendleft(work)
                        if not in_flight:
                            pool.shutdown(wait=False, cancel_futures=True)
                            pool = None
                        break
                    work.deadline = (
                        time.monotonic() + shard_timeout
                        if shard_timeout is not None
                        else None
                    )
                    in_flight[future] = work
                if not in_flight:
                    if delayed:  # only backoff sleepers remain
                        time.sleep(
                            max(0.0, min(ready for ready, _ in delayed) - now)
                        )
                    continue
                bounds = [w.deadline for w in in_flight.values() if w.deadline]
                bounds += [ready for ready, _ in delayed]
                timeout_arg = max(0.0, min(bounds) - now) if bounds else None
                done, _ = wait(
                    set(in_flight), timeout=timeout_arg, return_when=FIRST_COMPLETED
                )
                pool_broken = False
                for future in done:
                    work = in_flight.pop(future)
                    try:
                        record = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        _requeue_after_death(work)
                    except Exception as error:  # noqa: BLE001 - budgeted above
                        _attempt_failed(work, f"{type(error).__name__}: {error}")
                    else:
                        _finish(
                            work.index,
                            work.shard,
                            record,
                            attempts=work.attempts + work.deaths + 1,
                        )
                now = time.monotonic()
                expired = [
                    future
                    for future, work in in_flight.items()
                    if work.deadline is not None and work.deadline <= now
                ]
                if expired:
                    # The stuck worker cannot be stopped cooperatively: kill
                    # the pool, charge the stuck shard, respawn for the rest.
                    _kill_pool_workers()
                    pool_broken = True
                    for future in expired:
                        work = in_flight.pop(future)
                        _attempt_failed(
                            work, f"timed out after {shard_timeout:g}s"
                        )
                if pool_broken:
                    for future in list(in_flight):
                        _requeue_after_death(in_flight.pop(future))
                    if pool is not None:
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    if jobs > 1:
        pending: deque = deque()
        for index, shard in enumerate(shards):
            record = _from_store(shard)
            if record is not None:
                _serve_cached(index, shard, record)
            else:
                pending.append(_Work(index=index, shard=shard))
        if len(pending) == 1 and shard_timeout is None:
            # One missing shard does not justify pool startup; the in-process
            # fast path keeps the retry budget.  A timeout needs a worker to
            # kill, so with one set even a lone shard goes to the pool.
            _run_serial(pending.popleft(), None)
        elif pending:
            _run_pool(pending)
    else:
        # Stamped at the first shard that runs: the stamp imports NumPy, which
        # an all-cached run never needs.
        environment = None
        for index, shard in enumerate(shards):
            record = _from_store(shard)
            if record is not None:
                _serve_cached(index, shard, record)
            else:
                if environment is None:
                    environment = environment_stamp()
                _run_serial(_Work(index=index, shard=shard), environment)

    report.records = [record for record in records if record is not None]
    report.failed = [failures[index] for index in sorted(failures)]
    if len(report.records) + len(report.failed) != len(shards):  # pragma: no cover
        raise RuntimeError("runner lost a shard record")
    report.elapsed_seconds = time.perf_counter() - started
    # Populated unconditionally -- the all-cached path (nothing executed) and
    # the single-shard fast path get the same summary shape as a full pool run.
    report.metrics = {
        "shards": len(shards),
        "ran": len(report.executed),
        "cached": len(report.cached),
        "failed": len(report.failed),
        "retries": retries,
        "elapsed_seconds": report.elapsed_seconds,
        "shard_timings": [timings[index] for index in sorted(timings)],
    }
    return report


def registry_sorted(records: Sequence[Mapping[str, object]]) -> List[Mapping[str, object]]:
    """Sort store records into registry order (then profile, then key).

    Store directory listings are alphabetical; reports want the registry's
    presentation order (figures first, claims after) with a deterministic
    tie-break for multiple profiles or parameterisations of one experiment.
    """
    order = {experiment_id: i for i, experiment_id in enumerate(list_experiments())}

    def sort_key(record: Mapping[str, object]):
        payload = record["payload"]
        return (
            order.get(payload["experiment_id"], len(order)),
            payload["experiment_id"],
            payload["profile"],
            record["key"],
        )

    return sorted(records, key=sort_key)
