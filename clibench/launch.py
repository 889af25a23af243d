"""Run ``slimcodeml <argv>`` in this process, as ``python -m repro.cli`` would.

Usage::

    python3 clibench/launch.py [--setup-only] MARKER TRACE_DIR -- <slimcodeml argv...>

``MARKER`` receives one line per process: the ``time.monotonic()`` of
that process's first likelihood evaluation.  The hook that writes it
removes itself on first use, so the rest of the run is the unmodified
program; the benchmark reads set-up time off the earliest line.
``--setup-only`` exits right after that line is written: a set-up
sample that costs no likelihood work.

``TRACE_DIR`` ``-`` runs untraced.  Otherwise every layer is wrapped
(see :mod:`tracer`) and span files land in that directory, starting
with a span around ``import repro.cli``.
"""

from __future__ import annotations

import os
import sys
import time


def _install_marker(path: str, setup_only: bool) -> None:
    from repro.core.engine import BoundLikelihood

    original = BoundLikelihood.log_likelihood

    def first_evaluation(self, *args, **kwargs):
        stamp = time.monotonic()
        # Restore first: the fork-inherited copy in each pool worker
        # still fires once there, so every process marks its own start.
        BoundLikelihood.log_likelihood = original
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, f"{stamp!r}\n".encode())
        finally:
            os.close(fd)
        if setup_only:
            os._exit(0)
        return original(self, *args, **kwargs)

    BoundLikelihood.log_likelihood = first_evaluation


def main(argv: list) -> int:
    setup_only = argv[:1] == ["--setup-only"]
    if setup_only:
        argv = argv[1:]
    marker, trace_dir, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: launch.py [--setup-only] MARKER TRACE_DIR -- ARGV...")
    rec = None
    if trace_dir != "-":
        from tracer import Recorder

        rec = Recorder(trace_dir)
    start = time.monotonic()
    import repro.cli

    if rec is not None:
        rec.record("import", start, time.monotonic())
        from tracer import install

        install(rec)
    _install_marker(marker, setup_only)
    code = repro.cli.main(cli_argv)
    if rec is not None:
        rec.flush(main=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
