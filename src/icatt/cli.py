"""Command-line driver.

``icatt check FILE...`` parses, elaborates and kernel-checks each file
in order, printing one line per accepted declaration.  Files share one
growing environment, so later files may use earlier declarations.
Exit status is 0 when everything checks, 1 on the first failed
declaration (or after reporting all failures with ``--keep-going``),
2 on usage errors.

The analysis flags delegate to the walking-equivalence machinery:
``--neutral-count N`` prints the number of neutral categorical terms in
dimension N (counted, not enumerated), ``--equiv-trunc N`` prints the
N-truncation context, and ``--check-gamma N`` verifies the
variable-to-neutral correspondence.  They exit 0 on success, 1 when the
correspondence fails to check, and 2, after one ``icatt: ... [category]``
line, when the stage or dimension is out of bounds.

The driver runs in one worker thread whose stack is large enough for the
recursion limit, so deep input cannot overflow the C stack; input that
nests past the recursion limit, or that exhausts memory, fails with a
``bound-exceeded`` error, reported like any other checker error.  A
library caller gets the same guarantee by calling through
:func:`run_on_worker_stack`.
"""

from __future__ import annotations

import argparse
import sys
import threading

from .elaborate import elaborate_decl
from .errors import BoundExceeded, IcattError
from .kernel import Environment, RecDecl, TermDecl, check_decl
from .normalize import nf
from .parser import parse
from .printer import print_context, print_term, print_type

# the recursion limit of a check, and a worker stack that holds it
_RECURSION_LIMIT = 200_000
_STACK_BYTES = 512 << 20


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="icatt", description=__doc__)
    ap.add_argument("--neutral-count", type=int, metavar="N",
                    help="print the number of neutral categorical terms of dimension N")
    ap.add_argument("--equiv-trunc", type=int, metavar="N",
                    help="print the N-truncation of the walking equivalence")
    ap.add_argument("--check-gamma", type=int, metavar="N",
                    help="check the variable-to-neutral correspondence up to stage N")
    sub = ap.add_subparsers(dest="command")
    chk = sub.add_parser("check", help="type-check proof scripts")
    chk.add_argument("files", nargs="+", metavar="FILE")
    chk.add_argument("--verbose", action="store_true", help="print judgment details")
    chk.add_argument("--keep-going", action="store_true",
                     help="report all failing declarations instead of stopping at the first")
    chk.add_argument("--dump-nf", metavar="NAME",
                     help="print the guarded normal form of a declaration after checking")
    return ap


def _run_check(args) -> int:
    status = 0
    env = Environment()
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"icatt: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        try:
            decls = _bounded(parse, text)
        except IcattError as exc:
            print(f"{path}:{exc}" if exc.span else f"{path}: {exc}", file=sys.stderr)
            return 1
        for sdecl in decls:
            try:
                kdecl = _bounded(elaborate_decl, env, sdecl)
                _bounded(check_decl, env, kdecl)
            except IcattError as exc:
                exc.span = exc.span or sdecl.span  # a kernel error is at its declaration
                print(f"{path}: {sdecl.kind} {sdecl.name}: {exc}", file=sys.stderr)
                status = 1
                if not args.keep_going:
                    return 1
                continue
            line = f"checked {sdecl.kind} {sdecl.name}"
            if args.verbose:
                line += f"  [{_describe(kdecl)}]"
            print(line)
    if args.dump_nf is not None and status == 0:
        decl = env.lookup(args.dump_nf)
        if decl is None:
            print(f"icatt: no declaration named {args.dump_nf}", file=sys.stderr)
            return 2
        print(_dump_nf(decl))
    return status


def _bounded(fn, *args):
    """``fn(*args)``, with running out of recursion depth or of memory
    reported as a :class:`BoundExceeded` error."""
    try:
        return fn(*args)
    except RecursionError:
        raise BoundExceeded(
            f"input nests more deeply than the recursion limit ({sys.getrecursionlimit()})"
        ) from None
    except MemoryError:
        raise BoundExceeded("out of memory") from None


def _describe(decl) -> str:
    if isinstance(decl, TermDecl):
        return f"{print_context(decl.ctx)} |- {print_term(decl.term)} : {print_type(decl.ty)}"
    if isinstance(decl, RecDecl):
        return f"rec over {print_context(decl.seed)}"
    return f"{print_context(decl.ps)} |- {print_type(decl.ty)}"


def _dump_nf(decl) -> str:
    if isinstance(decl, TermDecl):
        return f"nf {decl.name} = {print_term(nf(decl.term))}"
    if isinstance(decl, RecDecl):
        return f"nf {decl.name} = rec schema over {print_context(decl.seed)}"
    return f"nf {decl.name} = coherence schema : {print_type(decl.ty)}"


def run_on_worker_stack(fn, *args):
    """``fn(*args)``, run with the recursion limit of a check in a worker
    thread whose stack of ``_STACK_BYTES`` holds it, so deep input cannot
    overflow the C stack.  Returns what ``fn`` returns; running out of
    recursion depth or of memory raises :class:`BoundExceeded`, and any
    other exception ``fn`` raises is raised again here."""
    sys.setrecursionlimit(_RECURSION_LIMIT)
    outcome: list = []

    def work() -> None:
        try:
            outcome.append((True, _bounded(fn, *args)))
        except BaseException as exc:  # raised again below
            outcome.append((False, exc))

    old = threading.stack_size(_STACK_BYTES)
    try:
        # a daemon, so an interrupt of the main thread ends the process
        worker = threading.Thread(target=work, name="icatt", daemon=True)
        worker.start()
    finally:
        threading.stack_size(old)
    worker.join()
    returned, value = outcome[0]
    if not returned:
        raise value
    return value


def main(argv: list[str] | None = None) -> int:
    """Run the driver on ``argv`` on the worker stack
    (:func:`run_on_worker_stack`), and return its exit status; an
    exception it raises (``SystemExit`` on a usage error) is raised
    again here."""
    return run_on_worker_stack(_main, argv)


def _main(argv: list[str] | None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    ran_analysis = False
    try:
        if args.neutral_count is not None:
            from .equiv import count_neutrals

            print(_bounded(count_neutrals, args.neutral_count))
            ran_analysis = True
        if args.equiv_trunc is not None:
            from .equiv import equiv_truncation

            print(print_context(_bounded(equiv_truncation, args.equiv_trunc).ctx))
            ran_analysis = True
        if args.check_gamma is not None:
            from .equiv import check_gamma

            report = _bounded(check_gamma, args.check_gamma)
            print(
                f"gamma^{report.stage}: checked={report.checked} "
                f"bijection={report.bijection} equations={report.equations} "
                f"counts={report.counts}"
            )
            for line in report.details:
                print(f"  {line}")
            if not report.ok:
                return 1
            ran_analysis = True
    except IcattError as exc:
        print(f"icatt: {exc}", file=sys.stderr)
        return 2
    if args.command == "check":
        return _run_check(args)
    if not ran_analysis:
        ap.print_usage(sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
