import pytest

from mcdecomp.ir import Circuit, mcrx, mcx
from mcdecomp.schemes import borrowed_ladder, half_split_borrowed_x
from mcdecomp.sim import circuit_unitary, gate_unitary, phase_aligned_deviation
from mcdecomp.verify import CheckResult, VerifyError, exact_deviation, verify_schemes


def test_suite_passes_at_default_size():
    results = verify_schemes(max_controls=4, angles=5)
    assert results and all(r.ok for r in results)


def test_injected_off_by_one_ladder_fails_with_name():
    # negative control: drop the final Toffoli from a correct ladder
    good = borrowed_ladder(4)
    broken = Circuit(good.dim, good.width, good.gates[:-1], good.ancilla)
    dev = exact_deviation(broken, mcx(list(range(4)), 4))
    result = CheckResult("borrowed_ladder(k=4,broken)", dev <= 1e-8, dev)
    assert not result.ok
    assert "borrowed_ladder" in result.name
    assert result.deviation > 0.5


def test_width_bound_rejected():
    with pytest.raises(VerifyError):
        verify_schemes(max_controls=7)


@pytest.mark.parametrize("circuit, k", [
    (borrowed_ladder(4), 4),
    (half_split_borrowed_x(4), 4),
    (Circuit(2, borrowed_ladder(4).width, borrowed_ladder(4).gates[:-1]), 4),
])
def test_exact_deviation_matches_the_dense_ideal(circuit, k):
    ideal = mcx(list(range(k)), k)
    dense = phase_aligned_deviation(circuit_unitary(circuit),
                                    gate_unitary(ideal, circuit.width))
    assert exact_deviation(circuit, ideal) == dense


def test_exact_deviation_rejects_a_non_permutation_ideal():
    with pytest.raises(VerifyError):
        exact_deviation(borrowed_ladder(3), mcrx([0, 1, 2], 3, 0.3))
