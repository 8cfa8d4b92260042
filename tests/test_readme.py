"""README's "Command line" section and the CLI agree, in both directions:
the subcommands, each one's flags, the inference modes and the exit codes.
README's pointers resolve, and it holds no figure that a command measures."""

import argparse
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import kslab
from kslab import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


def _readme_commands() -> tuple[str, dict]:
    """The text before the section's example block, and each subcommand of
    the block with the flags on its line."""
    intro, block = _section("Command line").split("```sh\n")
    lines = {}
    for line in block.split("```")[0].splitlines():
        words = line.split("#")[0].split()
        lines[words[1]] = {w for w in words if w.startswith("--")}
    return intro, lines


def _subparsers() -> dict:
    [action] = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _options(parser: argparse.ArgumentParser) -> dict:
    return {s: a for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")}


def test_readme_lists_every_subcommand_and_no_other():
    _, lines = _readme_commands()
    assert set(lines) == set(_subparsers())


def test_readme_flags_are_each_subcommands_flags():
    """The flags README says every subcommand takes, plus those on a
    subcommand's example line, are exactly that subcommand's flags."""
    intro, lines = _readme_commands()
    common = set(re.findall(r"`(--[a-z-]+)", intro))
    assert common
    for name, parser in _subparsers().items():
        assert set(_options(parser)) == common | lines[name], name


def test_readme_modes_are_the_mode_choices():
    intro, _ = _readme_commands()
    [modes] = re.findall(r"`--mode \{([a-z|]+)\}`", intro)
    for parser in _subparsers().values():
        assert set(_options(parser)["--mode"].choices) == set(modes.split("|"))


def test_readme_exit_codes_are_those_main_returns():
    [sentence] = re.findall(r"Exit codes:[^.]*\.", _section("Command line"))
    listed = {int(code) for code in re.findall(r"`(\d+)`", sentence)}
    returned = {node.value.value for node in ast.walk(ast.parse(inspect.getsource(cli.main)))
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)}
    assert listed == returned


def test_readme_holds_no_timing_or_memory_figure():
    """Times and memory are measured by a command (``tools/step_costs.py``,
    the benchmark) and condensed in ``BENCH_*.json``; README points there,
    because a figure written by hand drifts from what the code does."""
    figures = [(n, line) for n, line in enumerate(README.read_text().splitlines(), 1)
               if re.search(r"\d\s*(s|ms|us|µs|MB|KB|GB)\b", line)]
    assert figures == []


def _code_spans() -> list:
    """The text of every inline code span, fenced blocks left out."""
    return re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", README.read_text(), flags=re.S))


def test_readme_module_names_resolve():
    """Each backticked dotted name that starts with a ``kslab`` module, such
    as ``config.RULES``, names an attribute of that module."""
    modules = {m.name for m in pkgutil.iter_modules(kslab.__path__)}
    names = {m[0] for span in _code_spans()
             if (m := re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span))
             and m[0].split(".")[0] in modules}
    assert names
    assert sorted(name for name in names if not _resolves(name)) == []


def _resolves(name: str) -> bool:
    first, *attrs = name.split(".")
    obj = importlib.import_module(f"kslab.{first}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_paths_exist():
    """Every repository path README names, in prose or in a block, exists."""
    text = README.read_text()
    paths = set(re.findall(r"(?:tools|tests|src/kslab)/[\w./-]*\w|BENCH_\d+\.json", text))
    paths |= {f"src/kslab/{name}" for name in re.findall(r"^  (\w+\.py) ", text, flags=re.M)}
    assert paths
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []
