"""Traced stand-in for ``python -m hydrospline.cli`` in the traced run.

Usage: cli_child.py SPANS_JSON ARGS...  Runs ``hydrospline.cli.main(ARGS)``
with the tracer installed, writes the spans to SPANS_JSON and exits with
main's status, so output and exit code match the plain command.
"""

import json
import sys

from tracer import Tracer

tracer = Tracer()
index = tracer.begin("startup.import_cli")
import hydrospline.cli  # noqa: E402  (the import is what this span times)

tracer.end(index)
tracer.install()
index = tracer.begin("cli.main")
try:
    code = hydrospline.cli.main(sys.argv[2:])
finally:
    tracer.end(index)
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
sys.exit(code)
