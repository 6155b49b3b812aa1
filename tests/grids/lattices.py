"""Non-cubic lattices (``Cell.at`` matrices) shared by the grid tests."""

import numpy as np

TETRAGONAL = np.diag([1.0, 1.0, 1.6])
SHEARED = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.2]])
