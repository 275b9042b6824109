#!/usr/bin/env python3
"""Regenerate the pinned references in perfbench/reference.

    python3 perfbench/pin.py [census] [classes] [cli]

Each run of the benchmark compares its outputs with these files, so they
are regenerated only on purpose, from a commit whose outputs are trusted:
  census.json   rows (serialize.adlv_rows) and lattice count of every census
                any seed can draw
  classes.json  every sigma-class partition any seed can draw, as sorted
                blocks of the benchmark's own element encoding
  cli.json      sha256 of the artifact of every CLI job
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402


def pin_census(lib):
    data = workloads.census_data(lib)
    out = {}
    for key, group, x, mu, p, depth in workloads.census_specs(lib, data):
        b = lib["affine"].rep_lift(x)
        census = lib["lattices"].adlv_points(b, mu, p, depth)
        out[key] = {"lattices": census.lattice_count,
                    "rows": [list(r) for r in lib["serialize"].adlv_rows(census)]}
    return out


def pin_classes(lib):
    out = {}
    for key, tag, rank, cap, sigma_name, bound in workloads.classes_specs():
        datum = lib["rootdata"].build_classical(tag, rank)
        partition = lib["affine"].enumerate_sigma_classes(
            datum, cap, sigma=workloads.ROTATIONS.get(sigma_name), coord_bound=bound)
        out[key] = workloads.canonical_partition(partition)
    return out


def pin_cli(lib):
    out = {}
    job_dir = os.path.join(ROOT, ".perfbench", "pin")
    os.makedirs(job_dir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for argv in workloads.cli_jobs():
        path = os.path.join(job_dir, "artifact")
        proc = subprocess.run([sys.executable, "-m", "centralleaf.cli", *argv,
                               "--output", path], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            raise SystemExit(f"{argv}: exit {proc.returncode}: {proc.stderr}")
        out[workloads.cli_key(argv)] = workloads.sha256_file(path)
        os.remove(path)
    return out


def main(names):
    pins = {"census": pin_census, "classes": pin_classes, "cli": pin_cli}
    unknown = [name for name in names if name not in pins]
    if unknown:
        raise SystemExit(f"usage: pin.py [{'] ['.join(sorted(pins))}]; "
                         f"unknown: {', '.join(unknown)}")
    lib = workloads.import_library(ROOT)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(pins):
        data = pins[name](lib)
        path = os.path.join(workloads.REFERENCE_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(data)} entries")


if __name__ == "__main__":
    main(sys.argv[1:])
