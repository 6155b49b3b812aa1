"""A one-node transport for tests that build their own world."""

from repro.mpisim import NetworkModel


def one_node_network(
    sim, n_ranks, capacity=8.0e9, injection_bw=1.0e9, latency=1.0e-6
) -> NetworkModel:
    """Every one of ``n_ranks`` ranks on node 0.  The fabric parameters only
    have to be valid: no byte crosses it."""
    return NetworkModel(
        sim,
        capacity=capacity,
        injection_bw=injection_bw,
        latency=latency,
        node_of=(0,) * n_ranks,
        inter_capacity=capacity,
        inter_injection_bw=injection_bw,
        inter_latency=latency,
    )
