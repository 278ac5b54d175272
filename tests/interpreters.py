"""Run the checks that need no pytest under several Python interpreters.

Usage: python tests/interpreters.py PYTHON [PYTHON ...]

Each interpreter runs with PYTHONPATH=src and needs only the standard
library.  For each one this prints the SHA-256 of the report stream of
`bernmod verify --identity all --primes 5..401 --no-timestamps`, and of the
output of the "Console script" step of .github/workflows/tests.yml, run by
bash with `bernmod` and `python` standing for that interpreter (commands on
PATH, so `timeout` can run them too), under a temporary directory that is
removed afterwards.  It exits 1 if a run fails or a digest differs between
interpreters.  The file name does not match test_*.py, so pytest does not
collect it.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STREAM = ["verify", "--identity", "all", "--primes", "5..401",
          "--no-timestamps"]
# the step's commands, each a script that becomes the interpreter $PY
COMMANDS = {"bernmod": 'exec "$PY" -m bernmod "$@"',
            "python": 'exec "$PY" "$@"'}


def console_script() -> str:
    """The body of the workflow's "Console script" step, dedented."""
    lines = WORKFLOW.read_text().splitlines()
    start = [i for i, line in enumerate(lines)
             if line.strip() == "- name: Console script"][0]
    if lines[start + 1].strip() != "run: |":
        raise SystemExit(f"{WORKFLOW}: no run block after the Console script "
                         "step")
    body = lines[start + 2:]
    indent = len(body[0]) - len(body[0].lstrip())
    script = []
    for line in body:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        script.append(line[indent:])
    return "\n".join(script) + "\n"


def main(pythons: list[str]) -> int:
    if not pythons:
        print(__doc__, file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = console_script()
    digests: dict[str, set[str]] = {"stream": set(), "console": set()}
    ok = True
    for python in pythons:
        version = subprocess.run(
            [python, "-c", "import platform; print(platform.python_version())"],
            capture_output=True, text=True, env=env).stdout.strip()
        with tempfile.TemporaryDirectory() as tmp:
            bin_dir = Path(tmp, "bin")
            bin_dir.mkdir()
            for name, body in COMMANDS.items():
                (bin_dir / name).write_text(f"#!/bin/sh\n{body}\n")
                (bin_dir / name).chmod(0o755)
            path = os.pathsep.join([str(bin_dir), env["PATH"]])
            runs = {
                "stream": subprocess.run([python, "-m", "bernmod", *STREAM],
                                         capture_output=True, env=env,
                                         cwd=ROOT),
                "console": subprocess.run(["bash", "-e", "-c", script],
                                          capture_output=True, cwd=ROOT,
                                          env={**env, "PATH": path,
                                               "PY": shutil.which(python)
                                               or python, "TMPDIR": tmp}),
            }
        for name, proc in runs.items():
            digest = hashlib.sha256(proc.stdout).hexdigest()
            digests[name].add(digest)
            status = "ok" if proc.returncode == 0 else (
                f"exit {proc.returncode}")
            print(f"{python} ({version}) {name}: {digest} {status}")
            if proc.returncode != 0:
                ok = False
                sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    for name, seen in digests.items():
        if len(seen) > 1:
            print(f"{name}: {len(seen)} different digests")
            ok = False
    print("all interpreters agree" if ok else "interpreters differ or fail")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
