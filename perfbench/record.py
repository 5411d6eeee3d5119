"""Record the reference digests that ``run.py`` checks every repetition against.

Run from the repository root, at a commit whose outputs are known good:

    python3 perfbench/record.py [WORKLOAD ...]

For each workload (all by default) and each of the ``VARIANTS`` input
cohorts, it generates the inputs, makes one `carepath run`, and stores the
digest of the inputs and of the artifact directory in
``perfbench/references.json``.  Entries of workloads not named are kept.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys

import run


def main(names: list[str]) -> int:
    sys.path.insert(0, str(run.SRC.resolve()))
    import numpy

    import carepath

    refs = {"workloads": {}}
    if run.REFERENCES.exists():
        refs = json.loads(run.REFERENCES.read_text())
    refs["recorded_with"] = (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"carepath {carepath.__version__}"
    )
    refs["variants"] = run.VARIANTS
    for name in names or sorted(run.WORKLOADS):
        entries = {}
        for variant in range(run.VARIANTS):
            run.make_inputs(name, variant)
            wdir = run.workload_dir(name)
            shutil.rmtree(wdir / "out", ignore_errors=True)
            result = run.spawn(run.run_args(name, variant), wdir / "run.log", 600.0)
            if result.code != 0:
                print((wdir / "run.log").read_text(), file=sys.stderr)
                return 1
            entries[str(variant)] = {
                "inputs": run.tree_digest(wdir / "inputs"),
                "artifacts": run.tree_digest(wdir / "out"),
            }
            print(f"{name} variant {variant}: {result.wall_s:.2f} s", flush=True)
        refs["workloads"][name] = entries
        run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
