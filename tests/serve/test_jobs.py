"""Queue semantics: coalescing, priorities, bounds, drain mode."""

from repro.harness.parallel import SweepPoint, point_key
from repro.harness.runner import SafeRunOutcome
from repro.serve.jobs import (
    ADMIT_CLOSED,
    ADMIT_COALESCED,
    ADMIT_FULL,
    ADMIT_NEW,
    Job,
    JobQueue,
)
from repro.sim.lockstep import LOCKSTEP_MIN_WIDTH

GEMM = SweepPoint("gemm", "float16", "auto")
ATAX = SweepPoint("atax", "float16", "auto")


def test_identical_points_coalesce_to_one_job():
    queue = JobQueue(max_depth=4)
    first, verdict = queue.submit(Job(GEMM))
    assert verdict == ADMIT_NEW
    second, verdict = queue.submit(Job(GEMM))
    assert verdict == ADMIT_COALESCED
    assert second is first and first.coalesced == 1
    assert queue.depth == 1  # one execution scheduled, not two


def test_coalescing_covers_running_jobs():
    # The window spans admission -> finish(), so a duplicate arriving
    # while the point *executes* (already popped) still attaches.
    queue = JobQueue(max_depth=4)
    job, _ = queue.submit(Job(GEMM))
    assert queue.pop(0.01) is job
    assert queue.depth == 0
    dup, verdict = queue.submit(Job(GEMM))
    assert verdict == ADMIT_COALESCED and dup is job
    queue.finish(job)
    fresh, verdict = queue.submit(Job(GEMM))
    assert verdict == ADMIT_NEW and fresh is not job


def test_job_key_is_the_point_key():
    # A profiled request is the same point as a plain one: the profile
    # is built from the shared outcome, so they coalesce.
    assert Job(GEMM).key == point_key(GEMM)


def _queue_seed_variants(queue, count):
    """Queue GEMM seeds 0..count plus two jobs that cannot batch with
    it: another stream and a deadline-bound seed variant."""
    head, _ = queue.submit(Job(GEMM))
    peers = [queue.submit(Job(GEMM._replace(seed=seed)))[0]
             for seed in range(1, count + 1)]
    queue.submit(Job(ATAX))
    queue.submit(Job(GEMM._replace(seed=count + 1), deadline_at=1e12))
    assert queue.pop(0.01) is head
    return head, peers


def test_pop_compatible_takes_seed_variants_of_the_head_stream():
    queue = JobQueue(max_depth=64)
    head, peers = _queue_seed_variants(queue, LOCKSTEP_MIN_WIDTH - 1)
    assert queue.pop_compatible(head) == peers
    assert queue.depth == 2  # atax and the deadline-bound job stay
    assert queue.pop(0.01).point == ATAX


def test_pop_compatible_takes_none_below_the_minimum_width():
    # A narrower batch is slower than its jobs run one after another,
    # so they stay queued for free workers.
    queue = JobQueue(max_depth=64)
    head, peers = _queue_seed_variants(queue, LOCKSTEP_MIN_WIDTH - 2)
    assert queue.pop_compatible(head) == []
    assert queue.depth == len(peers) + 2
    assert queue.pop(0.01) is peers[0]


def test_pop_compatible_never_batches_a_deadline_head():
    queue = JobQueue(max_depth=64)
    head, _ = queue.submit(Job(GEMM, deadline_at=1e12))
    for seed in range(1, LOCKSTEP_MIN_WIDTH + 1):
        queue.submit(Job(GEMM._replace(seed=seed)))
    assert queue.pop(0.01) is head
    assert queue.pop_compatible(head) == []
    assert queue.depth == LOCKSTEP_MIN_WIDTH


def test_full_queue_refuses_admission():
    queue = JobQueue(max_depth=1)
    _, verdict = queue.submit(Job(GEMM))
    assert verdict == ADMIT_NEW
    _, verdict = queue.submit(Job(ATAX))
    assert verdict == ADMIT_FULL
    # ... but a duplicate of queued work still coalesces when full.
    _, verdict = queue.submit(Job(GEMM))
    assert verdict == ADMIT_COALESCED


def test_interactive_preempts_batch():
    queue = JobQueue(max_depth=8)
    batch, _ = queue.submit(Job(ATAX, priority="batch"))
    interactive, _ = queue.submit(Job(GEMM, priority="interactive"))
    assert queue.pop(0.01) is interactive
    assert queue.pop(0.01) is batch


def test_fifo_within_priority():
    queue = JobQueue(max_depth=8)
    first, _ = queue.submit(Job(GEMM, priority="batch"))
    second, _ = queue.submit(Job(ATAX, priority="batch"))
    assert queue.pop(0.01) is first
    assert queue.pop(0.01) is second


def test_submit_all_is_atomic():
    queue = JobQueue(max_depth=2)
    jobs = [Job(SweepPoint("gemm", "float16", "auto", seed=i))
            for i in range(3)]
    assert queue.submit_all(jobs) is None  # 3 don't fit in 2: nothing in
    assert queue.depth == 0
    verdicts = queue.submit_all(jobs[:2])
    assert [v for _, v in verdicts] == [ADMIT_NEW, ADMIT_NEW]
    assert queue.depth == 2


def test_submit_all_coalesces_against_inflight_and_itself():
    queue = JobQueue(max_depth=2)
    queue.submit(Job(GEMM))
    verdicts = queue.submit_all([Job(GEMM), Job(ATAX), Job(ATAX)])
    assert [v for _, v in verdicts] == [
        ADMIT_COALESCED, ADMIT_NEW, ADMIT_COALESCED]
    assert queue.depth == 2


def test_closed_queue_refuses_everything_new():
    queue = JobQueue(max_depth=4)
    inflight, _ = queue.submit(Job(GEMM))
    queue.close()
    _, verdict = queue.submit(Job(ATAX))
    assert verdict == ADMIT_CLOSED
    assert queue.submit_all([Job(ATAX)]) is None
    # Duplicates of already-admitted work still attach during drain.
    dup, verdict = queue.submit(Job(GEMM))
    assert verdict == ADMIT_COALESCED and dup is inflight


def test_job_resolution_wakes_waiters():
    job = Job(GEMM)
    assert not job.done
    job.resolve(SafeRunOutcome(status="ok"))
    assert job.done and job.wait(0.01)
    timed = Job(GEMM)
    timed.resolve_timeout("too slow")
    assert timed.timed_out and timed.timeout_detail == "too slow"
