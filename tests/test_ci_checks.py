"""ci/checks.py holds every CI check, and the workflow only calls it.

The script is loaded read-only from its file and nothing in it runs. Its
argv tables must parse and resolve as the CLI would parse and resolve them,
so a renamed subcommand or config key fails here instead of in CI; and each
workflow step after the install is one single-line call of one of the
script's steps, in the script's order, so no check code lives in the YAML.
The workflow installs the numpy and scipy releases of the script's PINS,
and pyproject.toml's requirements admit them.
"""

import importlib.util
import re
import tomllib
from pathlib import Path

import pytest
from packaging.requirements import Requirement

from blowlab import cli
from blowlab.config import resolve_config

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _load_checks():
    spec = importlib.util.spec_from_file_location("ci_checks", ROOT / "ci" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()
ARGVS = ([(f"pair {name}", argv) for name, argv in checks.PAIRS]
         + [("round trip", [checks.ROUND_TRIP]), ("refusal probe", checks.REFUSAL)]
         + [(f"memory {' '.join(argv)}", argv) for argv, _, _ in checks.MEMORY])


@pytest.mark.parametrize("label, argv", ARGVS, ids=[label for label, _ in ARGVS])
def test_check_argv_resolves(label, argv):
    args = cli.build_parser().parse_args([*argv, "--out", "unused"])
    resolve_config(args.command, {}, cli._parse_overrides(args.overrides))


def test_round_trip_reads_a_pair_of_its_kind():
    assert dict(checks.PAIRS)[checks.ROUND_TRIP] == [checks.ROUND_TRIP]


def test_workflow_calls_each_step_once_in_order():
    steps = re.split(r"^\s+- (?=name:|uses:)", WORKFLOW.read_text(), flags=re.M)[1:]
    names = [step.split("\n", 1)[0] for step in steps]
    after_install = steps[names.index("name: Install dependencies") + 1:]
    runs = [re.findall(r"^\s+run:(.*)$", step, flags=re.M) for step in after_install]
    assert runs == [[f" python3 ci/checks.py {name}"] for name in checks.STEPS]


def test_workflow_installs_the_pinned_releases():
    install = re.search(r"^\s+run: python -m pip install (.*)$", WORKFLOW.read_text(), flags=re.M)
    pinned = re.findall(r'"(numpy|scipy)([=<>!~]=?[^"]*)?"', install.group(1))
    assert pinned == [(name, f"=={version}") for name, version in checks.PINS.items()]


def test_pyproject_admits_the_pinned_releases():
    # _scipy loads private scipy modules and calls private signatures as the
    # pinned release has them, so the declared range must hold that release
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = {req.name: req for req in map(Requirement, project["dependencies"])}
    for name, version in checks.PINS.items():
        assert requirements[name].specifier.contains(version), (name, version)
    # and no other scipy minor release, whose private modules may differ
    major, minor = map(int, checks.PINS["scipy"].split(".")[:2])
    for other in (f"{major}.{minor - 1}.0", f"{major}.{minor + 1}.0"):
        assert not requirements["scipy"].specifier.contains(other), other


def test_code_lines_skip_blanks_comments_and_docstrings():
    # counted: the import, the def, the return and both lines of X, a string
    # that is not a docstring
    source = ('"""A module\n\ndocstring."""\n'
              "\n"
              "import os  # a trailing comment\n"
              "# a comment\n"
              "    # an indented comment\n"
              'X = """not a\ndocstring"""\n'
              "def f():\n"
              '    """A function docstring."""\n'
              "\n"
              "    return os.sep\n")
    assert checks.code_lines(source) == 5
