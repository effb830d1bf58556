"""Byte-level guard on the demos: each script under ``demos/`` runs
in-process as ``__main__`` and the SHA-256 of its stdout must equal the
digest recorded below.  The demos print no timings, so their output is
deterministic."""

import contextlib
import hashlib
import io
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")

GOLDEN = {
    "depth_demo.py":
        "ed5345d347e5e385620a464d4687c8975a19b0bb4a3ae147a856693af3f94b44",
    "poincare_demo.py":
        "7d41f5af90a94c306a9a2fa1a562422caaab5f5d94b16b4021ddf6f46fd47860",
    "word_resolution_demo.py":
        "338250fe81df525f0a0a1a3c08a828f91cbcccac5fb4363da22178d65c41a1ac",
}


def test_every_demo_is_pinned():
    assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == \
        sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_stdout_is_unchanged(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[name]
