"""Regenerate expected.json: values that no oracle can supply.

    PYTHONPATH=src python3 perfbench/record.py

Records the stdout of every fixed CLI example and the measured singular
values of the fixed Jacobian checks.  The committed file was recorded at the
commit that introduced the benchmark; re-record only when a change to the
program is meant to alter these outputs, and say so in the change.
"""

import json
import subprocess
import sys

from dehnscope import schwarzian_end as se

import workloads

if __name__ == "__main__":
    cli = {}
    for args in workloads.CLI_EXAMPLES:
        proc = subprocess.run([sys.executable, "-m", "dehnscope.cli", *args], capture_output=True,
                              text=True, check=True, cwd=workloads.ROOT)
        cli[json.dumps(args)] = proc.stdout
    jacobian = {}
    for spec in workloads.jacobian_fixed_specs():
        p = workloads._jacobian_point(workloads.JAC_BASE, spec["depth"])
        report = se.jacobian_check(se.parse_map(spec["map"]), p, h=workloads.JAC_STEP, richardson=spec["richardson"])
        jacobian[workloads.jacobian_key(spec)] = list(report.measured)
    workloads.EXPECTED.write_text(json.dumps({"cli": cli, "jacobian": jacobian}, indent=1) + "\n")
