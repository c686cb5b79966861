"""Systems under test.

* :mod:`repro.systems.toycache` — the Figure 1 cache server (used by the
  quickstart and the framework's own integration tests),
* :mod:`repro.systems.pyxraft` — asynchronous-communication Raft (the
  paper's Xraft target) with bugs XRAFT-1/2/3 behind flags,
* :mod:`repro.systems.raftkv` — synchronous-RPC Raft key-value store
  (the paper's Raft-java target) with bugs RAFTKV-1/2 behind flags,
* :mod:`repro.systems.minizk` — coordination service speaking ZAB (the
  paper's ZooKeeper target) with ZOOKEEPER-1419/1653 behind flags.

:mod:`repro.systems.catalog` is the one table that says what each of
these names means to the command line: its model, mapping, cluster
factory, ``--bug`` flags and Table 2 scenarios.

Every system is a normal distributed system first: it runs standalone
(no Mocket) and is instrumented with the annotations of
:mod:`repro.core.mapping` exactly as the paper instruments its Java
targets.
"""
