import numpy as np

from tracksfm.rotations import axis_angle_to_matrix, matrix_to_quat

from oracles import matrix_to_quat_oracle


def pivot_case(R):
    t = np.trace(R)
    return int(np.argmax([t, R[0, 0], R[1, 1], R[2, 2]]))


class TestMatrixToQuat:
    def test_bit_identical_to_per_matrix_form(self, rng):
        """All four pivots, rotations within 1e-12..1 rad of pi, exact
        half-turns (w = 0) and the identity, batched and one at a time."""
        Rs = [axis_angle_to_matrix(rng.normal(size=3), rng.uniform(0.0, np.pi))
              for _ in range(400)]
        Rs += [axis_angle_to_matrix(rng.normal(size=3), np.pi - 10.0 ** -rng.uniform(0, 12))
               for _ in range(200)]
        Rs += [axis_angle_to_matrix(axis, np.pi) for axis in np.eye(3)]
        Rs += [np.diag(d) for d in ([1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0])]
        Rs += [np.eye(3)]
        R = np.stack(Rs)
        assert {pivot_case(Ri) for Ri in R} == {0, 1, 2, 3}
        expected = np.stack([matrix_to_quat_oracle(Ri) for Ri in R])
        assert np.array_equal(matrix_to_quat(R), expected)
        assert all(np.array_equal(matrix_to_quat(Ri), q) for Ri, q in zip(R, expected))
        assert np.array_equal(matrix_to_quat(R[None]), expected[None])
