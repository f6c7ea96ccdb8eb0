"""The benchmark's tracer can still wrap every entry point it names.

``perfbench.tracing.Tracer.install`` reads each entry point from its
owner's own namespace, so a renamed or removed broker method, or a
module-level ``sample_laplace_many`` binding that is gone, fails the
traced benchmark run.  This catches it in the ordinary test run.
"""

from __future__ import annotations

from perfbench.tracing import Tracer, entry_points


def test_tracer_installs_and_uninstalls_every_entry_point() -> None:
    originals = [vars(owner)[attribute] for owner, attribute, _, _ in entry_points()]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attribute) for owner, attribute, _, _ in entry_points()]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    restored = [vars(owner)[attribute] for owner, attribute, _, _ in entry_points()]
    assert all(r is o for r, o in zip(restored, originals))
