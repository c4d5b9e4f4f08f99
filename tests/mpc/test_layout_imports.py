"""numpy is imported on first use, never with the package.

Every check runs in a fresh interpreter (``sys.modules`` of the test process
already holds numpy once any vectorised test has run).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def run_fresh(script: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_importing_the_package_does_not_import_numpy():
    run_fresh(
        """
        import sys
        import repro, repro.dynamic_mpc, repro.static_mpc, repro.graph
        assert "numpy" not in sys.modules
        """
    )


def test_runs_that_never_vectorise_never_load_numpy_and_first_use_does():
    run_fresh(
        """
        import sys
        from repro.config import DMPCConfig
        from repro.dynamic_mpc import DMPCConnectivity
        from repro.graph.generators import gnm_random_graph
        from repro.graph.streams import mixed_stream
        from repro.mpc.layout import HAVE_NUMPY, numpy_or_none
        from repro.static_mpc import StaticConnectedComponents

        graph = gnm_random_graph(64, 128, seed=3)
        static = StaticConnectedComponents(graph)
        static.run()
        assert len(set(static.labels.values())) >= 1
        alg = DMPCConnectivity(DMPCConfig.for_graph(64, 256))
        alg.preprocess(graph.copy())
        for update in mixed_stream(64, 10, seed=4, insert_probability=0.5, initial=graph):
            alg.apply(update)
        alg.verify_invariants()
        assert "numpy" not in sys.modules

        first, second = numpy_or_none(), numpy_or_none()
        assert first is second
        assert (first is not None) == HAVE_NUMPY == ("numpy" in sys.modules)
        """
    )


def test_a_blocked_numpy_falls_back_to_the_pure_python_kernels():
    run_fresh(
        """
        import sys
        sys.modules["numpy"] = None  # what ``import numpy`` sees on a numpy-less host
        from repro.graph.generators import gnm_random_graph
        from repro.mpc.layout import HAVE_NUMPY, numpy_or_none
        from repro.static_mpc import StaticMaximalMatching

        assert not HAVE_NUMPY
        assert numpy_or_none() is None and numpy_or_none() is None
        graph = gnm_random_graph(44, 110, seed=23)
        runs = []
        for layout in ("csr", "dict"):
            matching = StaticMaximalMatching(graph, seed=23, layout=layout)
            matching.run()
            runs.append((sorted(matching.matching), matching.rounds_used))
        assert runs[0] == runs[1] and runs[0][0]
        """
    )
