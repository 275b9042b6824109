"""Traced cold CLI job: ``python3 cli_boot.py OUT ARGV...``.

Imports centralleaf.cli (timing the import), installs the tracer, runs
``centralleaf.cli.main(ARGV)``, writes the span aggregate to OUT.json and
the raw spans to OUT.spans.{json,bin}, and exits with the CLI's exit
code.  The caller puts the repository's ``src`` on PYTHONPATH.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import speed
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        import centralleaf.cli
        import_s = time.perf_counter() - start
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            code = centralleaf.cli.main(argv)
        finally:
            tracer.uninstall()
    agg = tracer.aggregate()
    agg["import_s"] = import_s
    agg.update(sampler.summary())
    tracer.dump(out + ".spans")
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump(agg, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
