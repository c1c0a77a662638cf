"""Spack-style package manager model.

§IV: the full user-facing stack is deployed with Spack 0.17.0 and exposed
through environment modules; architecture targeting comes from archspec,
whose ``linux-sifive-u74mc`` triple already worked unmodified.  This
package implements the Spack machinery the paper's deployment exercised:

* :mod:`repro.spack.version` — version objects and constraint ranges;
* :mod:`repro.spack.spec` — the spec language (``name@ver +variant
  ^dependency target=u74mc``), abstract and concrete specs;
* :mod:`repro.spack.package` — package definitions (versions, variants,
  dependencies);
* :mod:`repro.spack.repo` — the builtin repository with the Table I stack
  and its transitive dependencies;
* :mod:`repro.spack.archspec` — microarchitecture targets and toolchain
  flags, including ``u74mc``;
* :mod:`repro.spack.concretizer` — abstract spec → concrete dependency DAG;
* :mod:`repro.spack.installer` — topological build/install into the NFS
  software tree, with module generation;
* :mod:`repro.spack.environment` — the Monte Cimone production
  environment: exactly the Table I package list.
"""
