"""The benchmark's tracer (perfbench/tracing.py) patches the names it traces.

A traced name that is deleted or renamed makes ``Tracer.install`` fail; this
test makes that a test failure instead of a failed traced bench run.
"""

from pathlib import Path

import numpy as np

from qmlab import hamflow, reeb, symplectic
from qmlab.meshes import genus2_mesh, height_field

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_counts_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    installed = list(tracer._installed)
    try:
        assert installed
        for owner, attr, original in installed:
            assert vars(owner)[attr] is not original, attr
        symplectic.phi_homog(symplectic.full_rotation_loop(9), 2)
        mesh = genus2_mesh(5)
        graph = reeb.build_reeb(mesh.normalized(), height_field(mesh))
        h = reeb.GraphHamiltonian.constant(graph, 1.0)
        reeb.theorem2_value(graph, h)
        reeb.theorem2_value(graph, h)
        sc = hamflow.HamiltonianScenario(field=hamflow.RadialField([0.8], support_radius=1.0),
                                         ball_radius=1.2, support_radius=1.0, dt=0.05)
        hamflow.FlowMap(sc).evolve(np.array([[0.3, 0.2], [0.5, 0.0]]),
                                   step_hook=lambda *args: None)
    finally:
        tracer.uninstall()
    for owner, attr, original in installed:
        assert vars(owner)[attr] is original, attr
    count = tracer.count
    assert count["symplectic.phi_homog"] == count["symplectic.concat_power"] == 1
    assert count["symplectic.phi_lag"] == 1 and count["symplectic.phi_lag.samples"] == 17
    # the pruned core is cached on the graph: two evaluations, one prune
    assert count["reeb.theorem2_value"] == 2 and count["reeb.prune"] == 1
    assert count["hamflow.evolve"] == 1 and count["hamflow.step_hook"] == 20
    assert count["hamflow.point_steps"] == 40
