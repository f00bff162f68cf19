#!/usr/bin/env python3
"""Encrypted analytics as a shared service — multi-tenant coalescing.

The DATE'16 accelerator makes one huge modular multiplication cheap;
``repro.serve`` makes it *shared*.  This example runs the scenario the
serving tier was built for:

- three clinics (tenants ``north``, ``east``, ``west``) hold RLWE-
  encrypted patient vectors under one analyst key;
- each clinic independently submits **single-ciphertext** masking
  requests (plaintext multiplies) to the same compute service — none
  of them batches anything on its own;
- the service's coalescing scheduler merges the compatible requests
  across tenants into a few batched ``multiply_plain_many`` engine
  passes (one stacked NTT instead of one per request), then splits the
  results back per request;
- the analyst decrypts, and every served result is verified
  bit-identical to a direct library call.

Run:  python examples/service_analytics.py
"""

import random

from repro.engine.ops import RLWEMultiplyPlainJob
from repro.fhe.rlwe import RLWE, RLWEParams
from repro.serve import (
    ComputeService,
    ServiceClient,
    ServiceConfig,
    render_stats,
)

import numpy as np

CLINICS = ("north", "east", "west")
RECORDS_PER_CLINIC = 8
N = 256  # ring dimension = patients per vector
T = 1024  # plaintext modulus


def main() -> None:
    rng = random.Random(2016)
    params = RLWEParams(n=N, t=T, noise_bound=5)
    scheme = RLWE(params, rng=rng)
    secret = scheme.generate_secret()

    # Each clinic encrypts its weekly step-count vectors.
    plaintexts = {
        clinic: [
            [rng.randrange(0, 120) for _ in range(N)]
            for _ in range(RECORDS_PER_CLINIC)
        ]
        for clinic in CLINICS
    }
    encrypted = {
        clinic: scheme.encrypt_many(secret, rows)
        for clinic, rows in plaintexts.items()
    }
    # The analyst's cohort mask: keep every 4th patient.
    mask = [1 if i % 4 == 0 else 0 for i in range(N)]

    print(
        f"{len(CLINICS)} clinics x {RECORDS_PER_CLINIC} encrypted "
        f"vectors (RLWE, n={N}, t={T}), one shared compute service\n"
    )

    with ComputeService(config=ServiceConfig()) as service:
        clients = {
            clinic: ServiceClient(service, tenant=clinic)
            for clinic in CLINICS
        }
        # Hold dispatch while the clinics fire their independent
        # single-ciphertext requests, the way a busy service naturally
        # accumulates a queue; on release the scheduler coalesces
        # compatible requests into batched engine passes.
        futures = []
        with service.scheduler.paused():
            for clinic, client in clients.items():
                for ct in encrypted[clinic]:
                    op = RLWEMultiplyPlainJob(params, [ct], [mask])
                    futures.append((clinic, ct, client.submit(op)))
        responses = [
            (clinic, ct, future.result())
            for clinic, ct, future in futures
        ]

        total = len(responses)
        ok = sum(1 for _, _, r in responses if r.ok)
        print(f"{ok}/{total} masking requests served ok")

        # Every served ciphertext must be bit-identical to the direct
        # library call — coalescing is a scheduling move, not a math one.
        identical = 0
        for _, ct, response in responses:
            want = scheme.multiply_plain(ct, mask)
            got = response.result[0]
            if np.array_equal(got.c0, want.c0) and np.array_equal(
                got.c1, want.c1
            ):
                identical += 1
        print(
            f"{identical}/{total} served results bit-identical to "
            f"direct multiply_plain"
        )
        assert identical == total

        # The analyst decrypts one served result per clinic.
        for clinic in CLINICS:
            _, _, response = next(
                item for item in responses if item[0] == clinic
            )
            decrypted = scheme.decrypt(secret, response.result[0])
            print(
                f"  {clinic}: decrypted masked vector, "
                f"sample positions {decrypted[:4]}..."
            )

        snapshot = service.stats()
        batching = snapshot["coalescing"]
        print(
            f"\n{total} single-ciphertext requests ran as "
            f"{batching['batches']} batched engine passes "
            f"({batching['requests_per_batch']:.1f} requests/batch)\n"
        )
        print(render_stats(snapshot))

    print(
        "\nevery batched pass stacked the tenants' ring products into "
        "one multi-row negacyclic NTT — the accelerator's batch "
        "dimension, filled by the scheduler instead of any one client"
    )


if __name__ == "__main__":
    main()
