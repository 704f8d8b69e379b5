"""The benchmark's tracer (perfbench/spans.py) finds its layers by the names
of hullkit's modules, functions and classes.  A rename in hullkit would
leave a per-layer metric silently at zero, so this checks that every target
still exists and that one op of each workload records a span of it.
No workload builds a polar body (`tcvp_check` reads the polar projection
body's vertices off the projection body's generators, or in 2D off its facet
planes), so `bodies.polar` is required of one `polar_projection_body` call
instead; `projection.projection_body` is recorded by the tcvp3d op's own
call, as `tcvp_check` makes none.  Nothing under
perfbench/ is changed."""

from pathlib import Path

from hullkit import fileio, projection

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_layer_exists_and_records_spans(monkeypatch):
    # perfbench's modules import each other by their plain names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import spans
    import workloads

    expected = set()
    for owner, attr, name, _ in spans._TARGETS:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
        expected |= {"bodies.hull2", "bodies.hull3"} if callable(name) else {name}

    tracer = spans.Tracer()
    for index, workload in enumerate(workloads.WORKLOADS):
        made = inputs.make_inputs(workload, 1)
        op = made.ops[0]
        text = made.bodies[op.body]
        # looked up on the module inside the op, as the tracer rebinds it there
        body = tracer.op(2 * index, lambda t: fileio.parse_body(t), text)
        tracer.op(2 * index + 1, workloads.WORKLOADS[workload][0], body, op.params)
    assert expected - {"bodies.polar"} - set(tracer.names) == set()
    start = len(tracer.names)
    tracer.op(2 * len(workloads.WORKLOADS), projection.polar_projection_body, body)
    assert "bodies.polar" in tracer.names[start:]
