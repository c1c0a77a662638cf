"""§III: the Infiniband FDR bring-up.

The status snapshot (HCA up, ibping working, RDMA not) is a set of claims
in the ledger (``test_paper_claims.py``).
"""

from repro.hardware.nic import RDMAUnsupportedError
from repro.network.infiniband import InfinibandFabric


def test_infiniband_rdma_error_message_cites_future_work(benchmark):
    fabric = InfinibandFabric()
    fabric.bring_up()
    boards = list(fabric.hcas.values())

    def try_rdma():
        try:
            boards[0].rdma_write(boards[1], 4096)
        except RDMAUnsupportedError as exc:
            return str(exc)
        return ""

    message = benchmark(try_rdma)
    assert "future work" in message
