"""Timed cold CLI job: ``python3 cli_timed.py OUT ARGV...``.

Runs ``centralleaf.cli`` as ``python -m centralleaf.cli ARGV`` does, with
the host-speed sampler of ``speed.py`` on from before the package import
until the CLI returns, writes the sampler's summary to OUT.json and exits
with the CLI's exit code.  The probes run in the job's own process, so
the caller can report the job in reference seconds without probing from
outside while the job holds the CPU.  The caller puts the repository's
``src`` on PYTHONPATH.
"""

import json
import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    sys.argv = [sys.argv[0]] + argv
    code = 0
    with speed.Sampler() as sampler:
        try:
            runpy.run_module("centralleaf.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump(sampler.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
