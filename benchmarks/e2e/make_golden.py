"""Regenerate golden.json: the outputs every benchmark run is checked against.

    python3 benchmarks/e2e/make_golden.py

Runs each workload's end-to-end pass once per golden seed with the
golden check off, and records what it produced:

- sim-points: all seven ``AccessStats`` fields per point, per seed;
- compile-specs: one ``outputs_sha256`` per spec, per seed (the run
  already requires the three engines to agree and every execute stage
  to be verified against the reference);
- serve-paced: the compile hashes and experiment ``AccessStats`` the
  daemon returned, per seed (the run already requires the latter to
  equal a direct ``simulate()``).

Refuses to write anything if a run failed a check.  Regenerate only when
a change is meant to alter program outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = (1998, 2026)


def _outputs(name: str, seed: int) -> dict:
    print(f"-- {name} seed={seed}", flush=True)
    result = run.run_workload(name, seed, 0.0, trace=False, use_golden=False)
    if not result["correct"]:
        sys.exit(f"{name} seed={seed}: {result['failed']} check(s) failed")
    return result["outputs"]


def main() -> int:
    run._require_checkout()
    golden: dict = {}
    for seed in SEEDS:
        golden.setdefault("sim-points", {})[str(seed)] = _outputs(
            "sim-points", seed)
        golden.setdefault("compile-specs", {})[str(seed)] = _outputs(
            "compile-specs", seed)
        golden.setdefault("serve-paced", {})[str(seed)] = _outputs(
            "serve-paced", seed)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
