"""Regenerate goldens.json: exit code and output digest of every scan.

Run from the repository root, at the commit whose reports are the
reference:

    python3 perfbench/make_goldens.py

The scans' reports do not depend on the seed, so one golden serves
every run.
"""
import json

import run
import workloads


def main():
    tb = run.import_program()
    goldens = {}
    for workload in ("scan-decide", "scan-emit"):
        for argv, fmt in workloads.scan_configs(workload):
            code, stdout = workloads.run_cli(tb, argv)
            goldens[" ".join(argv)] = {
                "exit": code,
                "sha256": workloads.output_digest(stdout, fmt),
            }
    with open(workloads.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
