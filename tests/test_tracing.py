"""The benchmark's tracing plan names functions that exist in phxai, so a
deleted or renamed traced function fails here, not only in a traced run."""

import sys
from pathlib import Path

import phxai

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracing import Tracer, install  # noqa: E402


def test_tracing_plan_finds_every_function():
    igcs = phxai.explain.igcs
    tracer = Tracer()
    install(tracer, phxai)
    try:
        tracer.check()
    finally:
        tracer.uninstall()
    assert phxai.explain.igcs is igcs   # later tests run untraced
