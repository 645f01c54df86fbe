"""Record the CLI goldens that the cli_fixture workload compares against.

    python3 bench/capture_goldens.py

Run from the root of a checkout.  For each command in
``workloads.CLI_COMMANDS`` it stores the exit code, the output stream and
the written file under ``bench/goldens``.  The goldens pin the output of
the commit that defined the benchmark; recapture only when a change to the
CLI output is intended.
"""

import json
import sys
from pathlib import Path

from workloads import CLI_COMMANDS, GOLDEN_DIR, OUT_DIR, child_env, spawn

root = Path.cwd()
out_dir = OUT_DIR / "cli"
out_dir.mkdir(parents=True, exist_ok=True)
GOLDEN_DIR.mkdir(exist_ok=True)
codes = {}
for name, args in CLI_COMMANDS:
    argv = [a.replace("{out}", str(out_dir)) for a in args]
    codes[name], output, _ = spawn([sys.executable, "-m", "hydrospline.cli", *argv],
                                   child_env(root), root)
    (GOLDEN_DIR / f"{name}.stdout").write_bytes(output)
    for written, raw in zip(argv, args):
        if "{out}" in raw:
            (GOLDEN_DIR / f"{name}.file").write_bytes(Path(written).read_bytes())
            Path(written).unlink()
(GOLDEN_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
print(json.dumps(codes))
