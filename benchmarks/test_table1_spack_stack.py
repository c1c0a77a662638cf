"""Table I: deploy the user-facing software stack via the Spack model.

Each package's version against the paper's Table I is a claim in the
ledger (``test_paper_claims.py``).
"""

from repro.analysis.paper import TABLE_I_STACK


def test_table1_includes_transitive_dependencies(benchmark):
    """The paper omits transitive deps 'for brevity'; we install them."""
    from repro.spack.environment import SpackEnvironment
    from repro.spack.installer import Installer

    def deploy():
        installer = Installer()
        SpackEnvironment.monte_cimone().install(installer)
        return installer.records()

    records = benchmark(deploy)
    names = {record.name for record in records}
    # More packages installed than the nine user-facing ones.
    assert len(names) > len(TABLE_I_STACK)
    assert {"hwloc", "zlib", "pmix"} <= names
