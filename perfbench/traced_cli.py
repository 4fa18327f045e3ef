"""The contragen CLI with spans recorded, for traced cli-scenarios ops.

    python3 perfbench/traced_cli.py SPANS_JSON OP_ID CLI_ARGS...

Behaves as ``python -m contragen.cli CLI_ARGS...`` (same output, same exit
code) and writes its spans to SPANS_JSON when the command ends.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracing
from common import use_checkout_source


def main() -> int:
    spans_path, op_id, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    use_checkout_source()
    import contragen.cli

    tracer = tracing.Tracer()
    tracer.current_op = op_id
    tracing.install(tracer)
    try:
        return contragen.cli.run_cli(argv)
    finally:
        sys.stdout.flush()
        spans_path.write_text(json.dumps(tracer.to_json()))


if __name__ == "__main__":
    sys.exit(main())
