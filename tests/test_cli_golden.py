"""The README's CLI examples, plus a `--json` run of every subcommand, through
`cli.run`, compared byte for byte with the stdout, exit code and artifacts
stored under tests/golden/.

After an intended output change, rewrite the goldens with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
import shlex
import shutil
import tempfile
from pathlib import Path

import pytest

from knotobs import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"

# Every subcommand's --json envelope, including an invalid certificate and
# an inconclusive verdict; successful runs only, since a failure prints no rows.
JSON_RUNS = [
    'alexander "T(2,3) # -T(2,3)" --fox-milnor --json out.json',
    'genus "Cable(Wh(T(2,3));3,1)" --json out.json',
    'gsp-bound "T(3,5)" --json out.json',
    'fox-milnor "T(2,3) # -T(2,3)" --json out.json',
    'factor "T(5,7)" --json out.json',
    'sig-jumps "T(3,4)" --at 1/2 --json out.json',
    "sig-certify --pair 5,7 --pair 5,7 --k 2 --json out.json",
    'upsilon "T(3,4)" --json out.json',
    'upsilon-obstruct "T(3,4) # -T(2,5)" --genus-level 1 --json out.json',
    "ordered-demo --seed 7 --cases 50 --json out.json",
    "eps-obstruct --label L_5 --genus-level 2 --json out.json",
    "eps-obstruct --a1 1 --a2 3 --genus-level 2 --json out.json",
    "eps-certify --k 2 --max 12 --family L --json out.json",
    "family Jprime 3 --json out.json",
]


def readme_runs() -> list[str]:
    """The `knotobs ...` lines of the README's CLI block, without `knotobs`."""
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line[len("knotobs "):] for line in block.splitlines() if line.startswith("knotobs ")]


def cases() -> dict[str, list[str]]:
    runs = {"readme": readme_runs(), "json": JSON_RUNS}
    return {
        f"{kind}-{i:02d}-{argv[0]}": argv
        for kind, lines in runs.items()
        for i, line in enumerate(lines)
        for argv in [shlex.split(line, comments=True)]
    }


def outputs(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Stdout, exit code and every file the command writes into `workdir`."""
    stdout, cwd = io.StringIO(), os.getcwd()
    os.chdir(workdir)  # contextlib.chdir needs Python 3.11
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.run(argv)
    finally:
        os.chdir(cwd)
    result = {"stdout": stdout.getvalue().encode(), "exit_code": f"{code}\n".encode()}
    result.update((p.name, p.read_bytes()) for p in workdir.iterdir())
    return result


@pytest.mark.parametrize("name", list(cases()))
def test_golden(name, tmp_path):
    expected = {p.name: p.read_bytes() for p in (GOLDEN / name).iterdir()}
    assert outputs(cases()[name], tmp_path) == expected


def _rewrite_goldens() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, argv in cases().items():
        with tempfile.TemporaryDirectory() as work:
            written = outputs(argv, Path(work))
        (GOLDEN / name).mkdir(parents=True)
        for filename, data in written.items():
            (GOLDEN / name / filename).write_bytes(data)


if __name__ == "__main__":
    _rewrite_goldens()
