"""Record the expected answer of every pool input into perfbench/expected/.

    python3 perfbench/record.py [workload ...]

Run from the root of a checkout.  Every answer is cross-checked against its
closed form before it is written, and the run stops at the first input that
fails one.  Re-recording is for a change that adds or alters inputs; a change
to the program must reproduce the committed answers, not replace them.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _summary(output) -> dict:
    """The scalar fields of each check, kept for a reader of the file."""
    if isinstance(output, dict):  # hilb dimensions
        return output
    return {
        f"{report['config']['subcommand']} {report['config']['action']} {check['name']}": {
            key: value
            for key, value in check.items()
            if key != "name"
            and (
                isinstance(value, (bool, int, str))
                or (isinstance(value, list) and all(isinstance(v, int) for v in value))
            )
        }
        for report in output
        for check in report["checks"]
    }


def record(workload) -> dict:
    lib = workloads.import_program()
    items = workload.pool(lib)
    out = {}
    for key in sorted(items):
        item = items[key]
        code, text, output = workloads.run_item(lib, item)
        problems = workloads.closed_form_problems(item, output)
        if code != 0 or problems:
            raise SystemExit(f"{workload.name} {key}: exit {code}, {problems}")
        out[key] = {
            "input_sha": item.input_sha,
            "output_sha": workloads.sha256(text),
            "summary": _summary(output),
        }
        print(f"{workload.name} {key} ok", file=sys.stderr)
    return out


def main(names) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        answers = record(workloads.WORKLOADS[name])
        path = workloads.EXPECTED_DIR / f"{name}.json"
        payload = {"workload": name, "pool": workloads.POOL, "items": answers}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(answers)} answers to {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
