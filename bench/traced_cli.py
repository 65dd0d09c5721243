"""Run one pdsr CLI command with the tracer installed.

    python3 bench/traced_cli.py SPANS_JSON pdsr-argument...

Times `import pdsr.cli`, patches pdsr's functions, calls
`pdsr.cli.main(args, standalone_mode=False)` and writes the spans and
counters to SPANS_JSON.  Exits as the CLI would: 0 on success, the click
exit code on a usage or pdsr error, 1 on any other exception.
"""

from __future__ import annotations

import json
import sys
import traceback

from tracer import Tracer


def run(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    i = tracer.begin("cli.import")
    import click
    import pdsr.cli

    tracer.end(i)
    tracer.install()
    code = 0
    i = tracer.begin("cli.main")
    try:
        pdsr.cli.main(argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tracer.end(i)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
