"""Jobs API walkthrough: futures-style submission over the Engine.

The scenario: an FHE service front-end accepts multiplication requests
while earlier batches are still computing.  The jobs layer gives it

- ``submit`` — queue work, keep the caller free (futures-style handle),
- ``map`` — chunk a large series into batched jobs,
- ``as_completed`` — consume results in completion order,
- the ``software-mp`` backend — shard each batch over worker processes.

Run: ``python examples/jobs_pipeline.py``
"""

import random
import time

from repro.engine import Engine, ExecutionConfig
from repro.jobs import JobScheduler, MultiplyJob, as_completed

rng = random.Random(20160314)
BITS = 2048


def make_pairs(count):
    return [
        (rng.getrandbits(BITS), rng.getrandbits(BITS))
        for _ in range(count)
    ]


# -- submit: the caller stays free while the queue works ----------------
engine = Engine()
with JobScheduler(engine) as jobs:
    handle = jobs.submit(MultiplyJob(make_pairs(8)))
    print(f"submitted {handle!r}; caller is free immediately")
    overlap_work = sum(range(1_000_00))  # front-end keeps serving
    products = handle.result()
    print(f"batch of {len(products)} products done "
          f"(handle.done()={handle.done()})")

    # -- map: one large series, chunked into batched jobs ---------------
    pairs = make_pairs(48)
    start = time.perf_counter()
    looped = [
        jobs.submit(MultiplyJob.of(a, b)).result()[0] for a, b in pairs
    ]
    looped_s = time.perf_counter() - start
    start = time.perf_counter()
    mapped = jobs.map("multiply", pairs, chunk=16)
    mapped_s = time.perf_counter() - start
    assert looped == mapped == [a * b for a, b in pairs]
    print(f"48 products: looped submission {looped_s * 1e3:.1f} ms, "
          f"map(chunk=16) {mapped_s * 1e3:.1f} ms "
          f"({looped_s / mapped_s:.2f}x)")

    # -- as_completed: stream results as they land -----------------------
    handles = jobs.submit_map("multiply", make_pairs(12), chunk=4)
    for done in as_completed(handles):
        print(f"  job {done.job_id} finished with "
              f"{len(done.result())} products")

# -- software-mp: the same batch sharded over worker processes ----------
mp_engine = Engine(
    config=ExecutionConfig(workers=2), backend="software-mp"
)
pairs = make_pairs(16)
left = [a for a, _ in pairs]
right = [b for _, b in pairs]
assert mp_engine.multiply(left, right) == [a * b for a, b in pairs]
print("software-mp backend: 16 products sharded over "
      f"{mp_engine.backend.workers(mp_engine)} workers, bit-identical")
mp_engine.close()
engine.close()
print("done")
