"""Record the goldens and workload fingerprints into benchmarks/goldens.json.

    python3 benchmarks/record_goldens.py

Runs every command of every workload's canonical documents once, unrelabelled,
and stores each answer under the command id.  Re-record only when the
workloads themselves change, never to make a changed answer pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import GOLDENS, OUT, SRC, WORKLOADS, Runner
from workloads import DEFAULT_SEED, build

sys.path.insert(0, str(SRC))


def main() -> int:
    recorded = {"canonical": {}, "default_seed": {}, "answers": {}}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="goldens-", dir=OUT))
    try:
        for name in WORKLOADS:
            pool = build(name, None)
            runner = Runner(pool, workdir)
            answers = {}
            for command in pool.commands + pool.probes:
                _, answers[command.cid] = runner.run(command)
            recorded["canonical"][name] = pool.canonical_digest
            recorded["default_seed"][name] = build(name, DEFAULT_SEED).digest()
            recorded["answers"][name] = answers
            print(f"{name}: {len(answers)} answers", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDENS.write_text(_dump(recorded), encoding="utf-8")
    return 0


def _dump(recorded: dict) -> str:
    """JSON with one golden per line, so a re-recording diffs per command."""
    blocks = []
    for name in sorted(recorded["answers"]):
        answers = recorded["answers"][name]
        rows = ",\n".join(f"{json.dumps(cid)}: {json.dumps(answers[cid], sort_keys=True)}" for cid in sorted(answers))
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    return (
        "{\n"
        f'"canonical": {json.dumps(recorded["canonical"], indent=1, sort_keys=True)},\n'
        f'"default_seed": {json.dumps(recorded["default_seed"], indent=1, sort_keys=True)},\n'
        '"answers": {\n' + ",\n".join(blocks) + "\n}\n}\n"
    )


if __name__ == "__main__":
    sys.exit(main())
