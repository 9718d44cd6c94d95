"""Record the Choi gaps of the noisy enumeration pools into reference.json.

    python3 bench/record_reference.py

The recorded values are the reference that the ``enumerate`` workload checks
its noisy cases against (within 1e-9). They were recorded from the seed code
of the library; re-record only when a change to the library is meant to
alter these results.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    lib = run.load_library()
    reference = {}
    for pool in workloads.noisy_enumeration_pools(lib).values():
        for key, f, cfg in pool:
            record, _ = lib.teleport.run_protocol(f, cfg)
            reference[key] = record.choi_gap
            print(f"{key}: {record.choi_gap!r}")
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
