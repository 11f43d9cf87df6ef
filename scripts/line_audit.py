"""Line trace and mutation audit of the bootmctp package.

Run from the repository root:

    python scripts/line_audit.py trace
    python scripts/line_audit.py mutate

``trace`` runs the tier-1 tests in this process under a ``sys.settrace``
hook (threads included, pool workers not) and lists every statement of
``src/bootmctp`` that never ran.  A compound statement counts as run when
its header line or its first body statement ran.

``mutate`` lists every comparison and boolean site of ``src/bootmctp``
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``and`` and ``or``),
swaps each alone in the module's syntax tree, writes ``ast.unparse`` of the
tree to a scratch copy of ``src/`` (whose other modules are unparsed too)
and runs tier-1 without acceptance criteria 3, 4 and 8 against it, stopping
at the first failure, one mutant per usable CPU at a time.  A mutant
survives when every test passes; a run that exceeds the timeout counts as
killed.

A site or statement listed in ``EQUIVALENT`` or ``UNRUN`` below is
explained by its one-line reason; anything else that survives or never
runs is reported, and the exit status is then 1.  Entries that match
nothing are reported as stale.  The script uses the standard library only
and is not part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bootmctp"
SLOW_CRITERIA = [f"tests/test_acceptance.py::test_criterion_{name}" for name in
                 ("3_fwer_desk_scale", "4_singular_robustness", "8_power_ordering")]

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And}
SPELLING = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
            ast.Eq: "==", ast.NotEq: "!=", ast.And: "and", ast.Or: "or"}

# Surviving mutants that change no observable behaviour, keyed as ``mutate``
# prints them: "<module>:<function>: <expression> [<operator> -> <swap>]".
EQUIVALENT = {
    "simgen.py:run_study: runs > sys.maxsize [> -> >=]":
        "differs only at runs == sys.maxsize, a study that no test can finish",
    "simgen.py:gen_covariates: abs(np.corrcoef(z1, z2)[0, 1]) > "
    "COVARIATE_MAX_ABS_CORR [> -> >=]":
        "differs only where a draw's |corr| is exactly 0.9, a null event",
    "simgen.py:gen_covariates: s < COVARIATE_MIN_SD_FRACTION * t [< -> <=]":
        "differs only where a draw's sd is exactly its floor, a null event",
}

# Statements that tier-1 cannot run in-process, keyed as ``trace`` prints
# them: "<module>:<function>: <first line of the statement>".
UNRUN = {
    "cli.py:<module>: sys.exit(main())":
        "runs only under `python -m bootmctp.cli`, a child process",
}


def _qualnames(tree: ast.Module) -> dict[ast.AST, str]:
    """The dotted name of the function or class enclosing each node."""
    names: dict[ast.AST, str] = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{prefix}.{child.name}" if prefix else child.name
            else:
                inner = prefix
            names[child] = prefix or "<module>"
            visit(child, inner)

    visit(tree, "")
    return names


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        yield path, source, ast.parse(source)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (isinstance(body, list) and body and body[0] is node
            and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef))
            and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _child_statements(node: ast.AST) -> list[ast.stmt]:
    out = []
    for field in ("body", "orelse", "finalbody"):
        value = getattr(node, field, None)
        if isinstance(value, list):
            out += [s for s in value if isinstance(s, ast.stmt)]
    for handler in getattr(node, "handlers", ()):
        out += handler.body
    for case in getattr(node, "cases", ()):
        out += case.body
    return out


def statements():
    """(path, key, own lines, first child) of every package statement."""
    counts = {}
    for path, source, tree in _modules():
        lines = source.splitlines()
        names = _qualnames(tree)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt) or _is_docstring(node, parents[node]):
                continue
            first = min([node.lineno] + [d.lineno for d in
                                          getattr(node, "decorator_list", ())])
            own = set(range(first, node.end_lineno + 1))
            children = _child_statements(node)
            for child in children:
                own -= set(range(child.lineno, child.end_lineno + 1))
            key = f"{path.name}:{names[node]}: {lines[node.lineno - 1].strip()}"
            counts[key] = counts.get(key, 0) + 1
            if counts[key] > 1:
                key += f" #{counts[key]}"
            yield path, key, own, children[0] if children else None


def trace() -> int:
    """Run tier-1 under a line trace and report the statements that never ran."""
    files = {str(p) for p in PACKAGE.glob("*.py")}
    seen: dict[str, set[int]] = {f: set() for f in files}
    done = set()  # code objects whose every line has been seen

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files or code in done:
            return None
        lines = {line for *_, line in code.co_lines() if line}
        if lines <= seen[code.co_filename]:
            done.add(code)
            return None
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"tier-1 failed (pytest exit {status}); the trace is incomplete")

    ran = {Path(f).resolve(): lines for f, lines in seen.items()}
    total, unrun, keys = 0, [], set()
    for path, key, own, first_child in statements():
        total += 1
        hit = ran[path.resolve()]
        if own & hit or first_child is not None and first_child.lineno in hit:
            continue
        keys.add(key)
        if key not in UNRUN:
            unrun.append(key)
    print(f"{total - len(keys)} of {total} package statements ran; "
          f"{len(keys) - len(unrun)} unrun and explained, {len(unrun)} unexplained")
    for key in unrun:
        print(f"UNRUN  {key}")
    stale = sorted(set(UNRUN) - keys)
    for key in stale:
        print(f"STALE  {key}")
    return int(bool(unrun or stale or status))


def _swapped(node: ast.AST):
    """Swap each site of one node in place in turn, yielding its original op."""
    if isinstance(node, ast.BoolOp):
        op = node.op
        node.op = SWAPS[type(op)]()
        yield op
        node.op = op
    else:
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                node.ops[i] = SWAPS[type(op)]()
                yield op
                node.ops[i] = op


def sites():
    """(key, path, mutated module source) of every mutation site."""
    out, counts = [], {}
    for path, _, tree in _modules():
        names = _qualnames(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.BoolOp, ast.Compare)):
                continue
            text = ast.unparse(node)
            for op in _swapped(node):
                key = (f"{path.name}:{names[node]}: {text} "
                       f"[{SPELLING[type(op)]} -> {SPELLING[SWAPS[type(op)]]}]")
                counts[key] = counts.get(key, 0) + 1
                if counts[key] > 1:
                    key += f" #{counts[key]}"
                out.append((key, path, ast.unparse(tree)))
    return out


def _run_tests(src: Path, timeout: float | None):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *[f"--deselect={t}" for t in SLOW_CRITERIA]]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return proc.returncode, time.perf_counter() - start


def mutate() -> int:
    """Run tier-1 against every mutant and report the survivors."""
    todo = sites()
    # Every copy holds the unparsed package, so a mutant differs from its
    # baseline by the swapped operator alone.
    unparsed = {path.name: ast.unparse(tree) for path, _, tree in _modules()}
    workers = len(os.sched_getaffinity(0))
    scratch = Path(tempfile.mkdtemp(prefix="bootmctp-mutants-"))
    try:
        copies = []
        for w in range(workers):
            dest = scratch / f"w{w}" / "bootmctp"
            shutil.copytree(PACKAGE, dest, ignore=shutil.ignore_patterns("__pycache__"))
            for name, text in unparsed.items():
                (dest / name).write_text(text, encoding="utf-8")
            copies.append(dest)
        status, base = _run_tests(copies[0].parent, None)
        if status != 0:
            print(f"tier-1 fails on the unmutated package (pytest exit {status})")
            return 1
        timeout = max(60.0, 5 * base)
        print(f"{len(todo)} sites on {workers} workers; unmutated run {base:.1f} s, "
              f"timeout {timeout:.0f} s", flush=True)
        free = list(copies)
        lock = threading.Lock()

        def run(site):
            key, path, text = site
            with lock:
                dest = free.pop()
            target = dest / path.name
            try:
                target.write_text(text, encoding="utf-8")
                outcome, seconds = _run_tests(dest.parent, timeout)
            finally:
                target.write_text(unparsed[path.name], encoding="utf-8")
                with lock:
                    free.append(dest)
            return key, outcome, seconds

        survivors, start = [], time.perf_counter()
        with ThreadPoolExecutor(workers) as pool:
            for key, outcome, seconds in pool.map(run, todo):
                verdict = "survived" if outcome == 0 else (
                    "timeout" if outcome == "timeout" else "killed")
                explained = " (equivalent)" if outcome == 0 and key in EQUIVALENT else ""
                print(f"{verdict:8} {seconds:6.1f} s  {key}{explained}", flush=True)
                if outcome == 0:
                    survivors.append(key)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    unexplained = [k for k in survivors if k not in EQUIVALENT]
    print(f"{len(todo)} mutants in {time.perf_counter() - start:.0f} s: "
          f"{len(todo) - len(survivors)} killed, {len(survivors) - len(unexplained)} "
          f"equivalent, {len(unexplained)} unexplained")
    for key in unexplained:
        print(f"SURVIVED  {key}")
    stale = sorted(set(EQUIVALENT) - set(survivors))
    for key in stale:
        print(f"STALE  {key}")
    return int(bool(unexplained or stale))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("trace", "mutate"))
    args = parser.parse_args(argv)
    return trace() if args.mode == "trace" else mutate()


if __name__ == "__main__":
    sys.exit(main())
