"""Mutation survey: run the tier-1 suite against one-operator mutants of chosen modules.

An ``ast`` pass over each module lists its mutation points:
- every comparison operator is flipped: ``<`` and ``<=``, ``>`` and ``>=``,
  ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``;
- every numeric literal is nudged: an int ``k`` to ``k + 1``, a float ``x``
  to ``1.01 x`` (``0.0`` to ``0.01``);
- every binary or augmented ``+`` becomes ``-`` and every ``-`` becomes ``+``.

Nothing inside an f-string is mutated, so error messages keep their numbers.
Each mutant changes one token of the source text and keeps every other byte,
comments and line numbers included. The script copies the repository into a
temporary directory and first runs the tier-1 suite there unmutated; if that
run fails, it prints the suite's output and exits with status 1, since every
mutant would then read as caught. Then it writes each mutant into the copy in
turn and runs the suite on it with ``-x``; a mutant the suite passes
survives. Survivors are printed at the end, one a line, as
``path:line:col  before -> after``.

Usage, from the repository root:

    python tools/mutants.py src/graph_deconv/estimation.py src/graph_deconv/simulate.py

A mutant whose suite runs longer than ``TIMEOUT`` counts as killed. Standard
library only. A caught mutant stops the suite at its first failure, but a
survivor runs all of it, so a survey of a hundred mutants can take a couple of
hours; it is not a CI step.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_runs", "*.egg-info"
)
SUITE = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
TIMEOUT = 600  # seconds; a mutant whose suite runs longer counts as killed

# Comparison operator -> (pattern of its token, the flipped token).
FLIPS = {
    ast.Lt: (r"<(?!=)", "<="),
    ast.LtE: (r"<=", "<"),
    ast.Gt: (r">(?!=)", ">="),
    ast.GtE: (r">=", ">"),
    ast.Eq: (r"==", "!="),
    ast.NotEq: (r"!=", "=="),
    ast.Is: (r"\bis\b(?!\s+not\b)", "is not"),
    ast.IsNot: (r"\bis\s+not\b", "is"),
    ast.In: (r"(?<!not )\bin\b", "not in"),
    ast.NotIn: (r"\bnot\s+in\b", "in"),
}
SWAPS = {ast.Add: (r"\+", "-"), ast.Sub: (r"-", "+")}


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the repository root
    line: int
    col: int
    start: int  # byte offsets of the replaced token in the file
    end: int
    before: str
    after: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}  {self.before} -> {self.after}"


def _nudged(value) -> str:
    if isinstance(value, int):
        return repr(value + 1)
    return repr(value * 1.01 if value else 0.01)


class _Sites(ast.NodeVisitor):
    """The operator gaps between operands, as (left, right, pattern, replacement), and the numeric literals."""

    def __init__(self):
        self.gaps = []  # (left node, right node, pattern, replacement)
        self.literals = []  # Constant nodes

    def visit_JoinedStr(self, node):
        pass  # f-string: leave messages alone

    def visit_Constant(self, node):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            self.literals.append(node)

    def visit_Compare(self, node):
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            pattern, flipped = FLIPS[type(op)]
            self.gaps.append((left, right, pattern, flipped))
            left = right
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if type(node.op) in SWAPS:
            self.gaps.append((node.left, node.right, *SWAPS[type(node.op)]))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if type(node.op) in SWAPS:
            pattern, swapped = SWAPS[type(node.op)]
            self.gaps.append((node.target, node.value, pattern + "=", swapped + "="))
        self.generic_visit(node)


def mutants(path: Path) -> list[Mutant]:
    """Every mutant of one module, in source order."""
    data = path.read_bytes()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:  # ast columns are UTF-8 byte offsets
        return starts[lineno - 1] + col

    sites = _Sites()
    sites.visit(ast.parse(data, filename=str(path)))
    rel = path.resolve().relative_to(ROOT).as_posix()
    found = []
    for left, right, pattern, after in sites.gaps:
        lo = offset(left.end_lineno, left.end_col_offset)
        hi = offset(right.lineno, right.col_offset)
        gap = re.sub(r"#[^\n]*", lambda c: " " * len(c.group()), data[lo:hi].decode())
        match = re.search(pattern, gap)
        if match is None:
            raise ValueError(f"{rel}:{right.lineno}: no {pattern!r} between the operands")
        start, end = lo + match.start(), lo + match.end()
        line = data.count(b"\n", 0, start) + 1
        found.append(Mutant(rel, line, start - starts[line - 1], start, end, match.group(), after))
    for node in sites.literals:
        start = offset(node.lineno, node.col_offset)
        end = offset(node.end_lineno, node.end_col_offset)
        text = data[start:end].decode()
        found.append(Mutant(rel, node.lineno, node.col_offset, start, end, text, _nudged(node.value)))
    return sorted(found, key=lambda m: (m.start, m.after))


def _apply(copy: Path, mutant: Mutant) -> bytes:
    """Write ``mutant`` into ``copy``; return the original bytes of its file."""
    target = copy / mutant.path
    original = target.read_bytes()
    target.write_bytes(original[: mutant.start] + mutant.after.encode() + original[mutant.end :])
    return original


def _suite(copy: Path) -> subprocess.CompletedProcess | None:
    """Run the suite in ``copy``; None if it runs longer than ``TIMEOUT``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            SUITE, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)


def run(mutant: Mutant, copy: Path) -> str:
    """Run the suite on ``copy`` with ``mutant`` applied: "killed", "survived" or "timeout"."""
    original = _apply(copy, mutant)
    try:
        done = _suite(copy)
    finally:
        (copy / mutant.path).write_bytes(original)
    if done is None:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", type=Path)
    args = parser.parse_args(argv)
    todo = [m for path in args.modules for m in mutants(path)]

    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        copy = Path(workdir) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        baseline = _suite(copy)
        if baseline is None or baseline.returncode != 0:
            print(baseline.stdout if baseline else f"the unmutated suite ran longer than {TIMEOUT} s")
            print("the unmutated suite fails in the copy; no mutant was run", file=sys.stderr)
            return 1
        survivors = []
        for mutant in todo:
            started = time.perf_counter()
            outcome = run(mutant, copy)
            print(f"{outcome:8s} {time.perf_counter() - started:6.1f}s  {mutant}", flush=True)
            if outcome == "survived":
                survivors.append(mutant)

    print(f"\n{len(survivors)} of {len(todo)} mutants survived:")
    for m in survivors:
        print(m)
    return 0


if __name__ == "__main__":
    sys.exit(main())
