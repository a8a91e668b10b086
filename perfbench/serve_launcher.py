"""Run the serving daemon with the benchmark's layer wrappers installed.

    python3 perfbench/serve_launcher.py OUT.json -- [repro.serve args]

Installs :func:`layers.install_serve_layers` in this process, then calls
the serve CLI's ``main()`` unchanged. When the daemon exits, the
per-label table (calls, self time, self CPU time of the calling thread,
per-call samples for the supervised miss path and the index load) is
written to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys

import common
import layers


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: serve_launcher.py OUT.json -- [serve args]",
              file=sys.stderr)
        return 2
    out_path, serve_args = argv[0], argv[2:]
    sys.path.insert(0, str(common.ROOT / "src"))
    from repro.serve import __main__ as serve_cli

    tracer = layers.Tracer(
        keep_samples=("serve.supervise", "serve.index_load"))
    layers.install_serve_layers(tracer)
    try:
        return serve_cli.main(serve_args)
    finally:
        with open(out_path, "w") as handle:
            json.dump({"layers": tracer.snapshot(),
                       "counts": tracer.counts}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
