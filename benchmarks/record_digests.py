"""Record the report digests that the suite workloads' correctness gate
compares against.

Run at the commit whose reports are the reference, from the repository root:

    python3 benchmarks/record_digests.py --seeds 0-39

Existing entries for other seeds are kept; entries for the given seeds
are replaced.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from workloads import (
    DIGEST_FILE,
    FORM_CHECK,
    VERIFY_ALL,
    import_cli,
    run_cli,
    suite_argvs,
    suite_gate,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-39", help="inclusive range, e.g. 0-39")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    cli = import_cli(Path(__file__).resolve().parents[1])
    digests = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}
    for seed in range(first, last + 1):
        for workload in (VERIFY_ALL, FORM_CHECK):
            record = []
            for argv in suite_argvs(workload, seed):
                reason, digest = suite_gate(*run_cli(cli, argv))
                if reason is not None:
                    raise SystemExit(f"{workload} seed {seed}: {reason}; nothing recorded")
                record.append(digest)
            digests.setdefault(workload, {})[str(seed)] = record
        print(seed, digests[VERIFY_ALL][str(seed)][0][:12], flush=True)
        partial = DIGEST_FILE.with_suffix(".partial")
        partial.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        partial.replace(DIGEST_FILE)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
