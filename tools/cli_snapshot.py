"""Record what every CLI command does on every shipped config.

    cd CHECKOUT && python path/to/tools/cli_snapshot.py OUTDIR

Runs `python -m authcap.cli COMMAND --config configs/NAME.json` for each
command (classify, region, figures, simulate, compare) and each
`configs/*.json` of the checkout in the current directory, with that
checkout's `src` first on PYTHONPATH, plus one `region --unit` run in the
config's non-default unit (nats for a discrete or binary model, bits for a
Gaussian one, unless the config sets "unit").  Each run gets a directory
OUTDIR/NAME/RUN (the command, or `region_unit`) holding `exit_code`,
`stdout`, `stderr` and, under `out/`, the files the command wrote.
Snapshots of two checkouts, such as a commit and its parent, compare with
one `diff -r`.  Exits 1 if any run exited 1 (an uncaught exception) or died
on a signal; the documented CLI exits 2-6 count as recorded outcomes.
Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("classify", "region", "figures", "simulate", "compare")


def snapshot(checkout: Path, outdir: Path) -> list:
    """Record every run under outdir; returns the runs that crashed."""
    crashed = []
    pythonpath = [str(checkout / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    for config in sorted((checkout / "configs").glob("*.json")):
        cfg = json.loads(config.read_text())
        default_unit = cfg.get("unit", "nats" if "gaussian" in cfg else "bits")
        other_unit = "bits" if default_unit == "nats" else "nats"
        runs = [(command, [command]) for command in COMMANDS]
        runs.append(("region_unit", ["region", "--unit", other_unit]))
        for name, command in runs:
            run_dir = outdir / config.stem / name
            run_dir.mkdir(parents=True)
            argv = [sys.executable, "-m", "authcap.cli", *command,
                    "--config", str(config.relative_to(checkout))]
            if command[0] != "classify":
                argv += ["--out", str(run_dir / "out")]
            proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True)
            (run_dir / "exit_code").write_text(f"{proc.returncode}\n")
            (run_dir / "stdout").write_bytes(proc.stdout)
            (run_dir / "stderr").write_bytes(proc.stderr)
            print(f"{config.name} {name}: exit {proc.returncode}")
            if proc.returncode == 1 or proc.returncode < 0:
                crashed.append(f"{config.name} {name}: exit {proc.returncode}")
    return crashed


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, outdir = Path.cwd(), Path(argv[0]).resolve()
    if not (checkout / "configs").is_dir() or not (checkout / "src" / "authcap").is_dir():
        print(f"error: {checkout} is not an authcap checkout (configs/, src/authcap/)",
              file=sys.stderr)
        return 2
    if outdir.exists() and any(outdir.iterdir()):
        print(f"error: {outdir} is not empty", file=sys.stderr)
        return 2
    crashed = snapshot(checkout, outdir)
    for run in crashed:
        print(f"error: crashed: {run}", file=sys.stderr)
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
