"""Benchmark of the xmod command line.

Three seeded workloads, each a closed loop of real ``xmod`` commands on
generated files, with every output checked against a value pinned by an
independent reference (``oracle``):

* ``cli_targets``: crossed-module parsing and axiom validation dominate;
* ``search``: the backtracking counter dominates;
* ``long_movies``: movie replay dominates.

``run.py`` runs one workload for one seed (the command ``BENCHMARK.json``
names), ``report.py`` prints every metric of every workload, ``inputs.py``
holds the mixes and why each input class is in them, ``loop.py`` is the
client and the tracer.  Tests: ``python3 -m pytest -q perfbench/tests``.
"""
