"""E8 / E9 — DMPC model properties.

E8 (Section 2): per-machine memory O(sqrt N), total memory O(N), per-round
I/O bounded — verified with hard enforcement switched on.

E9 (Section 8): the entropy of the communication distribution over machine
pairs distinguishes coordinator-centric algorithms (low entropy — the
coordinator participates in almost every exchange) from symmetric ones
(higher entropy).
"""

from __future__ import annotations

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCConnectivity, DMPCMaximalMatching
from repro.graph.generators import gnm_random_graph
from repro.graph.streams import mixed_stream


def test_model_limits_with_enforcement(benchmark):
    """E8: the connectivity algorithm runs cleanly with strict memory + I/O caps."""
    n, m = 48, 96
    config = DMPCConfig(capacity_n=n, capacity_m=4 * m, memory_slack=64.0, strict_memory=True)
    graph = gnm_random_graph(n, m, seed=1)
    stream = list(mixed_stream(n, 80, seed=2, insert_probability=0.5, initial=graph))

    def run():
        algorithm = DMPCConnectivity(config)
        algorithm.cluster.enforce_io_cap = True
        algorithm.preprocess(graph)
        algorithm.apply_sequence(stream)
        return algorithm

    algorithm = benchmark(run)
    peak_memory = max(machine.used_words for machine in algorithm.cluster.machines())
    total_memory = algorithm.cluster.total_stored_words
    benchmark.extra_info["machine_memory_S"] = config.machine_memory
    benchmark.extra_info["peak_machine_memory"] = peak_memory
    benchmark.extra_info["total_memory"] = total_memory
    benchmark.extra_info["input_size_N"] = graph.input_size
    print(
        f"\nS = {config.machine_memory} words, peak machine usage = {peak_memory}, "
        f"total memory = {total_memory} words for N = {graph.input_size}"
    )
    assert peak_memory <= config.machine_memory
    assert total_memory <= 80 * graph.input_size


def test_communication_entropy_coordinator_vs_symmetric(benchmark):
    """E9: coordinator-based matching has lower entropy than the symmetric connectivity."""
    n = 64
    graph = gnm_random_graph(n, 2 * n, seed=3)
    stream = list(mixed_stream(n, 100, seed=4, insert_probability=0.5, initial=graph))

    # entropy needs every round's per-pair breakdown: only the reference backend keeps it
    config = DMPCConfig.for_graph(n, 4 * n, backend="reference")

    def run():
        matching = DMPCMaximalMatching(config)
        matching.preprocess(graph)
        matching.apply_sequence(stream)
        connectivity = DMPCConnectivity(config)
        connectivity.preprocess(graph)
        connectivity.apply_sequence(stream)
        return matching, connectivity

    matching, connectivity = benchmark.pedantic(run, rounds=1, iterations=1)
    matching_entropy = matching.ledger.communication_entropy(f"{matching.kind}:")
    connectivity_entropy = connectivity.ledger.communication_entropy(f"{connectivity.kind}:")
    benchmark.extra_info["coordinator_entropy_bits"] = round(matching_entropy, 3)
    benchmark.extra_info["symmetric_entropy_bits"] = round(connectivity_entropy, 3)
    print(
        f"\ncommunication entropy: coordinator-based matching = {matching_entropy:.2f} bits, "
        f"Euler-tour connectivity = {connectivity_entropy:.2f} bits"
    )
    assert connectivity_entropy > matching_entropy
