import argparse
import functools
import importlib.util
import json
import os
import re
import subprocess
import sys
from datetime import datetime, timedelta

import pytest

import crpsmix
from crpsmix.cli import build_parser, main
from crpsmix.data import write_demo_load_csv

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND_SECTIONS = {"synth": "Synthetic mixture experiment", "load": "Hourly load forecasting",
                    "verify": "Property suites"}


def read_readme():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def readme_section(readme, title):
    """The README section `title`, code blocks included, up to the next
    heading."""
    return re.split(r"\n##+ ", readme.split(f"\n### {title}\n", 1)[1], 1)[0]


def test_alpha_sweep_prints_both_rules():
    src = os.path.dirname(os.path.dirname(crpsmix.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "alpha_sweep.py"),
         "--steps", "60", "--grid", "16"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    for mode in ("aa", "wa"):
        matches = [r for r in rows if r[:1] == [mode]]
        assert len(matches) == 1
        ratios = [float(x) for x in matches[0][1:]]
        assert len(ratios) == 8


def test_make_demo_load_csv_matches_library_writer(tmp_path):
    src = os.path.dirname(os.path.dirname(crpsmix.__file__))
    out = tmp_path / "script.csv"
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "make_demo_load_csv.py"),
         "--hours", "300", "--start", "2009-03-01T05:00:00", "--seed", "4",
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    want = write_demo_load_csv(
        tmp_path / "library.csv", 300, datetime(2009, 3, 1, 5), 4
    )
    assert out.read_bytes() == want.read_bytes()


SRC_LOC_SAMPLE = '''"""Module docstring,
two lines."""
# a comment

import os  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return """not a docstring,
spanning two lines"""
'''


def test_src_loc_counts_code_lines():
    spec = importlib.util.spec_from_file_location(
        "src_loc", os.path.join(REPO, "scripts", "src_loc.py"))
    src_loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_loc)
    # import, class, def and the two lines of the returned string
    assert src_loc.count(SRC_LOC_SAMPLE) == (14, 5)


@pytest.mark.parametrize("rev", [[], ["HEAD"]], ids=["tree", "rev"])
def test_src_loc_totals_are_the_sums_of_its_rows(rev):
    if rev and subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                              capture_output=True).returncode:
        pytest.skip("not a git checkout")
    proc = subprocess.run([sys.executable, os.path.join(REPO, "scripts", "src_loc.py"), *rev],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    assert {row[0] for row in rows} >= {"__init__.py", "cli.py", "game.py"}
    assert total[0] == "total"
    for column in (1, 2):
        assert int(total[column]) == sum(int(row[column]) for row in rows)
    assert all(int(row[2]) <= int(row[1]) for row in rows)


def test_readme_library_sketch_runs():
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Library sketch\n", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})
    # the set-up calls of perfbench/setup_probe.py
    for name in ("load_csv", "split_train_test", "build_load_roster", "default_generators",
                 "rotating_leader_schedule", "synth_stream", "GridDomain", "triangular_cdf"):
        assert callable(getattr(crpsmix, name, None)), name


def readme_artifacts(readme, title):
    """The file names in backquotes in the README section `title`, outside
    its code blocks; a directory as `name/`."""
    section = readme.split(f"\n### {title}\n", 1)[1]
    section = re.sub(r"```.*?```", "", section, flags=re.S).split("\n#", 1)[0]
    return set(re.findall(r"`(\w+\.(?:csv|txt)|\w+/)`", section))


def test_readme_names_the_artifacts_each_run_writes(small_runs):
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    synth, load = small_runs
    for title, out in (("Synthetic mixture experiment", synth),
                       ("Hourly load forecasting", load)):
        written = {p.name + "/" if p.is_dir() else p.name for p in out.iterdir()}
        assert readme_artifacts(readme, title) == written, title


@pytest.mark.parametrize("kind", ["load", "synth"])
def test_setup_probe_runs_the_public_set_up_calls(tmp_path, kind):
    # the benchmark's set-up probe calls build_load_roster and the synth
    # set-up directly; a change to their signatures must fail here
    if kind == "load":
        start = datetime(2006, 2, 15)
        data = write_demo_load_csv(tmp_path / "demo.csv", 1500 + 48, start, 3)
        args = [str(data), (start + timedelta(hours=1500)).isoformat()]
    else:
        args = ["3", "60", "64", "6"]  # seed, steps, grid, segments
    src = os.path.dirname(os.path.dirname(crpsmix.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "perfbench", "setup_probe.py"), kind, *args],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert {"setup_s", "import_s"} <= result.keys()
    assert 0 <= result["import_s"] <= result["setup_s"]


def readme_manifest_keys(readme, title):
    """The keys of the manifest table in the README section `title`, in
    order."""
    return re.findall(r"^\| `([^`]+)` \|", readme_section(readme, title), flags=re.M)


def test_readme_lists_the_manifest_keys_each_run_writes(small_runs, tmp_path):
    readme = read_readme()
    synth, load = small_runs
    wa = tmp_path / "wa"
    assert main(["synth", "--method", "1", "--mode", "wa", "--steps", "50", "--grid", "16",
                 "--out", str(wa)]) == 0
    # a load from two files, whose inputs are `train` then `test`
    with open(write_demo_load_csv(tmp_path / "demo.csv", hours=8760 + 48), encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    for name, part in (("train.csv", rows[:8760]), ("test.csv", rows[8760:])):
        (tmp_path / name).write_text("\n".join([header, *part]) + "\n", encoding="utf-8")
    files = tmp_path / "files"
    assert main(["load", "--train", str(tmp_path / "train.csv"), "--test",
                 str(tmp_path / "test.csv"), "--grid", "16", "--components", "1",
                 "--out", str(files)]) == 0
    for title, out, mode in (("Synthetic mixture experiment", synth, "aa"),
                             ("Synthetic mixture experiment", wa, "wa"),
                             ("Hourly load forecasting", load, "aa"),
                             ("Hourly load forecasting", files, "train/test")):
        listed = readme_manifest_keys(readme, title)
        patterns = [re.compile(re.sub(r"<\w+>", r"\\w+", key)) for key in listed]
        written = [line.split("=", 1)[0]
                   for line in (out / "manifest.txt").read_text(encoding="utf-8").splitlines()]
        rows = []  # the table row of each written key
        for key in written:
            matches = [i for i, pattern in enumerate(patterns) if pattern.fullmatch(key)]
            assert matches, (title, mode, key)
            rows.append(matches[0])
        assert rows == sorted(rows), (title, mode)  # in the order written
        assert set(rows) == set(range(len(listed))), (title, mode)  # no row without its key


def test_readme_dotted_names_resolve():
    # `grids.repair_cdf` is read as `crpsmix.grids.repair_cdf`
    modules = "|".join(name for name in vars(crpsmix)
                       if type(getattr(crpsmix, name)) is type(crpsmix))
    text = re.sub(r"```.*?```", "", read_readme(), flags=re.S)
    names = {name for span in re.findall(r"`([^`\n]+)`", text)
             for name in re.findall(rf"\b(?:crpsmix|{modules})(?:\.\w+)+", span)}
    assert len(names) >= 10
    for name in sorted(names):
        path = name.split(".")
        path = path[1:] if path[0] == "crpsmix" else path
        try:
            functools.reduce(getattr, path, crpsmix)
        except AttributeError:
            pytest.fail(f"README cites `{name}`, which does not exist")


def test_readme_names_every_option_in_its_command_section():
    readme = read_readme()
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert set(commands.choices) == set(COMMAND_SECTIONS)
    for command, parser in commands.choices.items():
        section = readme_section(readme, COMMAND_SECTIONS[command])
        for action in parser._actions:
            for flag in action.option_strings:
                if flag.startswith("--") and flag != "--help":
                    assert re.search(rf"(?<![\w-]){flag}(?![\w-])", section), (command, flag)
