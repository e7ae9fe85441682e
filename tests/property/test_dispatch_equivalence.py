"""Property tests: dispatch mode must never change sweep results.

The engine's core contract — results depend only on the spec, never on
how jobs were scheduled — extended to the batch-lease executor: for
any mix of runners, worker count, and lease size, batched dispatch is
bit-identical to per-job dispatch and to the serial reference, and
injected crash faults fail the same jobs without contaminating
survivors. Executions spawn real worker processes, so example counts
are kept deliberately small.
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import JobSpec, execute
from repro.engine.shm import active_segments
from repro.experiments.export import to_jsonable
from repro.faults import FaultPlan

_SLOW = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _jobs(n, big_every=0):
    jobs = []
    for i in range(n):
        if big_every and i % big_every == 0:
            jobs.append(
                JobSpec(
                    runner="test.array",
                    kwargs={"n": 20_000},
                    index=i,
                    seed=50 + i,
                    label=f"arr{i}",
                )
            )
        else:
            jobs.append(
                JobSpec(
                    runner="test.echo",
                    kwargs={"v": i},
                    index=i,
                    seed=50 + i,
                    label=f"echo{i}",
                )
            )
    return jobs


def _canon(result):
    return json.dumps(to_jsonable(result.values()), sort_keys=True)


@settings(**_SLOW)
@given(
    n_jobs=st.integers(1, 10),
    workers=st.sampled_from([2, 3]),
    lease_size=st.sampled_from([1, 2, 5, 16]),
    big_every=st.sampled_from([0, 3]),
)
def test_batched_equals_per_job_equals_serial(
    n_jobs, workers, lease_size, big_every
):
    jobs = _jobs(n_jobs, big_every)
    serial = execute(jobs, workers=1)
    per_job = execute(jobs, workers=workers, lease_size=1)
    batched = execute(
        jobs, workers=workers, lease_size=lease_size
    )
    assert _canon(serial) == _canon(per_job) == _canon(batched)
    assert active_segments() == ()


@settings(**_SLOW)
@given(
    crash_at=st.integers(0, 7),
    lease_size=st.sampled_from([1, 3, 8]),
)
def test_injected_crash_fails_same_job_in_both_modes(crash_at, lease_size):
    jobs = _jobs(8)
    plan = FaultPlan.single("crash", at=(crash_at,))
    per_job = execute(
        jobs, workers=2, lease_size=1, retries=0, faults=plan
    )
    batched = execute(
        jobs,
        workers=2,
        lease_size=lease_size,
        retries=0,
        faults=plan,
    )
    assert [o.status for o in per_job.outcomes] == [
        o.status for o in batched.outcomes
    ]
    assert (
        batched.outcomes[crash_at].failure.error_type == "WorkerCrashError"
    )
    # Survivors are bit-identical to the serial reference.
    serial = execute(jobs, workers=1)
    for i, outcome in enumerate(batched.outcomes):
        if i != crash_at:
            assert outcome.value == serial.outcomes[i].value
    assert active_segments() == ()


@settings(**_SLOW)
@given(
    hang_at=st.integers(0, 5),
    lease_size=st.sampled_from([2, 6]),
)
def test_injected_hang_is_reclaimed_under_batch(hang_at, lease_size):
    jobs = _jobs(6)
    plan = FaultPlan.single("hang", at=(hang_at,), hang_s=30.0)
    batched = execute(
        jobs,
        workers=2,
        lease_size=lease_size,
        retries=0,
        timeout_s=0.5,
        faults=plan,
    )
    statuses = [o.status for o in batched.outcomes]
    assert statuses[hang_at] == "failed"
    assert statuses.count("ok") == 5
    assert active_segments() == ()
