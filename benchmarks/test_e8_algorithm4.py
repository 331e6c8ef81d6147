"""E8 — Theorem 6 / Lemma 2: the 3-phase grid exchange.

Paper claims: N = m² processors mutually exchange values in 3 phases and
at most 3(m−1)m² = O(N^1.5) messages such that ≥ N − 2t correct processors
(those with < m/2 faulty row-mates) succeed completely; and the count
undercuts the Θ(Nt) hub-relay solution once t ≳ √N.
"""

from benchmarks._harness import run_once, show
from repro.adversary.standard import SilentAdversary
from repro.algorithms.algorithm4 import Algorithm4, nonisolated_set
from repro.bounds.formulas import theorem6_message_upper_bound
from repro.core.runner import run


def values_for(n: int) -> dict:
    return {pid: ("v", pid) for pid in range(n)}


def test_e8_exchange_costs_and_success_set(benchmark):
    def workload():
        rows = []
        for m in (2, 3, 4, 5, 6):
            n = m * m
            t = max(1, m // 2)
            algorithm = Algorithm4(m, t, values_for(n))
            fault_free = run(algorithm, 0)
            p_free = nonisolated_set(algorithm.grid, fault_free.faulty)
            violations_free = algorithm.conditions(fault_free).violations
            # worst case for Lemma 2: all faults packed into one row.
            packed = SilentAdversary(list(range(t)))
            faulty_run = run(Algorithm4(m, t, values_for(n)), 0, packed)
            p_faulty = nonisolated_set(algorithm.grid, faulty_run.faulty)
            violations_faulty = algorithm.conditions(faulty_run).violations
            rows.append(
                {
                    "m": m,
                    "N": n,
                    "t": t,
                    "messages": fault_free.metrics.messages_by_correct,
                    "bound 3(m-1)m²": theorem6_message_upper_bound(m),
                    "|P| fault-free": len(p_free),
                    "|P| packed-row": len(p_faulty),
                    "N-2t": n - 2 * t,
                    "lemma2 ok": not (violations_free or violations_faulty),
                }
            )
        return rows

    rows = run_once(benchmark, workload)
    show("E8 / Theorem 6 — Algorithm 4 grid exchange", rows)
    for row in rows:
        assert row["messages"] == row["bound 3(m-1)m²"], row
        assert row["|P| fault-free"] == row["N"], row
        assert row["|P| packed-row"] >= row["N-2t"], row
        assert row["lemma2 ok"], row


def test_e8_crossover_against_hub_relay(benchmark):
    """Where the O(N^1.5) exchange beats the hub relay of Section 6 —
    both *measured* (the hub is implemented in
    :mod:`repro.algorithms.hub_exchange`): the crossover sits near
    t ≈ 1.5·√N."""
    from repro.algorithms.hub_exchange import HubExchange

    def workload():
        rows = []
        for m in (3, 4, 5, 6, 8):
            n = m * m
            grid_cost = run(
                Algorithm4(m, 1, values_for(n)), 0, record_history=False
            ).metrics.messages_by_correct
            crossover = None
            for t in range(1, n - 1):
                hub_cost = run(
                    HubExchange(n, t, values_for(n)), 0, record_history=False
                ).metrics.messages_by_correct
                if grid_cost < hub_cost:
                    crossover = t
                    break
            rows.append(
                {
                    "m": m,
                    "N": n,
                    "grid messages (measured)": grid_cost,
                    "crossover t (measured)": crossover,
                    "1.5·√N": 1.5 * m,
                }
            )
        return rows

    rows = run_once(benchmark, workload)
    show("E8 / Theorem 6 — crossover vs the hub relay (both measured)", rows)
    for row in rows:
        assert row["crossover t (measured)"] is not None, row
        assert row["crossover t (measured)"] <= row["1.5·√N"] + 1, row
