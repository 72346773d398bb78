"""The build plan of ``gexpkit lower`` and ``build`` on a trace miss.

Lowering writes each derivation after its inputs, so the order it wrote
them in is the plan, and the CLI builds from it without reading back a
``.drv``.  `_closure_order`, the store walk that ``build(store, d)``
still uses for a derivation this process did not lower, is the
reference.
"""

import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from gexpkit import store
from gexpkit.store import Store, _closure_order, read_derivation

from conftest import package_chain, run_main


@st.composite
def package_dags(draw):
    """The text of a deployment of up to 8 packages, and a ``--target``
    or None.  Each package and the root embed some of the packages
    defined before them, with ``#$`` or ``#+``, each directly or
    through a ``file-append``, so inputs are shared and fan in."""
    def body(below):
        escapes = []
        for j in draw(st.lists(st.integers(0, below - 1), unique=True,
                               max_size=4) if below else st.just([])):
            obj = (f'(file-append p{j} "/x")' if draw(st.booleans())
                   else f"p{j}")
            escapes.append(draw(st.sampled_from(["#$", "#+"])) + obj)
        return f"#~(begin (mkdir #$output) (list {' '.join(escapes)}))"

    count = draw(st.integers(1, 8))
    forms = [f'(define-package p{i} (package (name "p{i}") (version "1")'
             f' (build {body(i)})))' for i in range(count)]
    return ("\n".join([*forms, body(count)]),
            draw(st.sampled_from([None, "aarch64-linux"])))


@settings(max_examples=60, deadline=None)
@given(package_dags())
def test_cli_plan_is_the_closure_dependencies_first(dag):
    text, target = dag
    with tempfile.TemporaryDirectory() as tmp:
        deploy = Path(tmp) / "deploy.scm"
        deploy.write_text(text)
        argv = ["build", str(deploy), "--store", f"{tmp}/store"]
        if target is not None:
            argv += ["--target", target]
        code, _out, err = run_main(argv)
        assert code == 0, err
        actions = [line.split(" ") for line in err.splitlines()]
        assert {action for action, _ in actions} == {"build"}
        plan = [path for _, path in actions]
        assert len(set(plan)) == len(plan)
        s = Store(f"{tmp}/store")
        for i, path in enumerate(plan):
            inputs = {str(p) for p, _ in read_derivation(s, path).input_drvs}
            assert inputs <= set(plan[:i])
        root = read_derivation(s, plan[-1])
        assert set(plan) == {str(p) for p, _ in
                             _closure_order(s, plan[-1], root)}
        code, _out, err = run_main(argv)
        assert err.splitlines() == [f"cached {path}" for path in plan]


def test_trace_miss_build_reads_no_drv(scratch, monkeypatch):
    reads = []
    real_read = store.read_derivation
    monkeypatch.setattr(store, "read_derivation",
                        lambda *args: reads.append(args) or real_read(*args))
    (scratch / "chain.scm").write_bytes(package_chain(3))
    code, _out, err = run_main(["build", "chain.scm"])
    assert code == 0, err
    assert [line.split(" ")[0] for line in err.splitlines()] == ["build"] * 4
    assert reads == []
