"""README's command-line walkthrough, run on the configs in configs/.

The commands are read from README.md's walkthrough block, so the two cannot
drift apart. They run once, in order, through cli.main in a copy of
configs/, which stays the working directory while the tests below check
the trees that the commands wrote.
"""

import os
import pathlib
import shlex
import shutil

import pytest

from conftest import run_python
from ftlab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def rerun(commands, prefix: str) -> tuple[list[str], str, str]:
    """The walkthrough command that begins with prefix, given a new --out
    beside its own: that command, its --out and the new one."""
    (argv,) = [a for a in commands if shlex.join(a).startswith(prefix)]
    out = argv[argv.index("--out") + 1]
    return [f"{a}-again" if a == out else a for a in argv], out, f"{out}-again"


def tree(directory) -> dict:
    """Relative path -> bytes of every file under directory."""
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(pathlib.Path(directory).rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """The arguments of each `ftlab` command in README's walkthrough block,
    every one run in order in a copy of configs/, the working directory
    until the module's last test ends."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = (readme.split("\n## Command-line walkthrough\n")[1]
             .split("```bash\n")[1].split("```")[0])
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("ftlab ")]
    root = tmp_path_factory.mktemp("walkthrough")
    shutil.copytree(ROOT / "configs", root / "configs")
    old = os.getcwd()
    os.chdir(root)
    try:
        for argv in commands:
            assert cli.main(argv) == 0, argv
        yield commands
    finally:
        os.chdir(old)


def test_each_report_rewrites_its_sweeps_report(commands):
    reports = [argv for argv in commands if argv[0] == "report"]
    assert reports
    for _, ledger, _, out in reports:      # report <ledger> --out <out>
        sweep = pathlib.Path(ledger).parent
        assert tree(out) == {name: (sweep / name).read_bytes()
                             for name in ("report.txt", "report.json")}


@pytest.mark.parametrize("command", ["train-source", "finetune"])
def test_second_run_in_one_process_writes_the_same_tree(commands, command):
    # no state leaks from one run to the next: not through the gradients a
    # run binds its steps to, nor through a shared parameter vector
    argv, out, again = rerun(commands, command)
    assert cli.main(argv) == 0
    assert tree(again) == tree(out)


# once set, the malloc policy cannot be undone in this process
WITHOUT_HEAP_POLICY = """
import sys
from ftlab import cli
cli.keep_freed_heap = lambda: None
sys.exit(cli.main(sys.argv[1:]))
"""


def test_grid_sweep_without_the_heap_policy_writes_the_same_tree(commands):
    argv, out, again = rerun(commands, "sweep configs/grid.json")
    run_python("-c", WITHOUT_HEAP_POLICY, *argv)
    assert tree(again) == tree(out)


def test_python_m_ftlab_cli_is_the_ftlab_program(commands):
    _, ledger, *_ = [argv for argv in commands if argv[0] == "report"][-1]
    printed = run_python("-m", "ftlab.cli", "report", ledger).stdout
    assert printed == (pathlib.Path(ledger).parent / "report.txt").read_text(
        encoding="utf-8")
