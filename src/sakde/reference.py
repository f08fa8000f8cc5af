"""Embedded reference values for the four benchmark coverage tables.

Each table fixes a ground-truth density and a grid of evaluation points,
bandwidth exponents and sample sizes, and reports the empirical confidence
level (percent) and averaged interval length for both estimators at 5000
replications.  The values below are the published benchmark results for
those configurations and serve as golden data for regression comparison;
they carry the original run's Monte Carlo noise and a handful of entries
(flagged in the test suite) look like transcription misprints in the source
tables.

Layout per bandwidth exponent ``a``, in ``table_layout(table).a_values`` order:
four rows of nine values, ordered by evaluation point (major) and sample size
(minor) as in :func:`sakde.mc.table_layout`: baseline levels, baseline
lengths, recursive levels, recursive lengths.
"""

from __future__ import annotations

import itertools

from sakde.mc import RECURSIVE, ROSENBLATT, table_layout

# table id -> (ros_levels, ros_lengths, rec_levels, rec_lengths) per a, in a_values order
_RAW = {
    1: (
        (
            (96.74, 96.08, 95.74, 97.10, 96.74, 96.96, 97.72, 97.44, 97.70),
            (0.2681, 0.2061, 0.1580, 0.2538, 0.1948, 0.1493, 0.2168, 0.1650, 0.1260),
            (99.36, 98.00, 96.18, 99.76, 98.96, 98.36, 98.86, 98.76, 98.78),
            (0.2436, 0.1840, 0.1400, 0.2332, 0.1755, 0.1331, 0.2068, 0.1529, 0.1146),
        ),
        (
            (96.58, 96.46, 96.78, 96.78, 97.06, 97.04, 97.32, 97.58, 96.96),
            (0.2796, 0.2167, 0.1674, 0.2653, 0.2050, 0.1579, 0.2250, 0.1731, 0.1328),
            (99.46, 98.58, 97.58, 99.60, 99.26, 98.72, 98.68, 98.32, 97.96),
            (0.2517, 0.1915, 0.1467, 0.2415, 0.1828, 0.1393, 0.2134, 0.1590, 0.1197),
        ),
    ),
    2: (
        (
            (96.86, 96.96, 96.86, 96.96, 96.68, 96.80, 97.12, 97.04, 96.94),
            (0.2541, 0.1949, 0.1493, 0.2436, 0.1866, 0.1427, 0.2142, 0.1642, 0.1251),
            (99.76, 99.04, 98.20, 99.62, 99.28, 98.72, 99.14, 98.94, 98.40),
            (0.2334, 0.1755, 0.1331, 0.2257, 0.1692, 0.1278, 0.2045, 0.1518, 0.1136),
        ),
        (
            (96.92, 97.04, 96.84, 96.56, 96.66, 97.14, 97.02, 97.12, 96.76),
            (0.2654, 0.2049, 0.1579, 0.2540, 0.1960, 0.1510, 0.2233, 0.1717, 0.1321),
            (99.90, 99.18, 98.76, 99.74, 99.30, 98.92, 98.78, 98.76, 98.20),
            (0.2416, 0.1826, 0.1393, 0.2334, 0.1760, 0.1338, 0.2116, 0.1575, 0.1187),
        ),
    ),
    3: (
        (
            (93.82, 94.98, 96.90, 91.06, 92.82, 94.00, 89.48, 86.88, 85.82),
            (0.1159, 0.0934, 0.0757, 0.1059, 0.0854, 0.0686, 0.0811, 0.0645, 0.0515),
            (97.54, 95.12, 94.34, 96.74, 94.62, 92.86, 97.20, 94.32, 91.16),
            (0.0979, 0.0765, 0.0610, 0.0910, 0.0707, 0.0558, 0.0736, 0.0557, 0.0432),
        ),
        (
            (95.64, 97.08, 97.28, 93.46, 94.84, 95.82, 91.58, 91.06, 89.04),
            (0.1271, 0.1042, 0.0851, 0.1158, 0.0946, 0.0770, 0.0883, 0.0713, 0.0574),
            (97.50, 97.26, 96.64, 97.22, 96.50, 95.42, 96.74, 95.66, 92.24),
            (0.1045, 0.0829, 0.0666, 0.0969, 0.0763, 0.0609, 0.0783, 0.0599, 0.0469),
        ),
        (
            (96.68, 97.62, 98.24, 95.16, 96.48, 97.16, 92.76, 91.20, 91.04),
            (0.1392, 0.1157, 0.0957, 0.1267, 0.1050, 0.0863, 0.0962, 0.0783, 0.0641),
            (97.16, 97.48, 97.56, 96.96, 96.84, 96.70, 96.72, 96.58, 94.20),
            (0.1111, 0.0893, 0.0726, 0.1031, 0.0822, 0.0662, 0.0832, 0.0642, 0.0509),
        ),
    ),
    4: (
        (
            (91.84, 91.28, 92.40, 90.06, 89.42, 87.86, 83.24, 80.46, 78.88),
            (0.1050, 0.0847, 0.0680, 0.0976, 0.0785, 0.0630, 0.0787, 0.0631, 0.0500),
            (96.80, 93.76, 91.34, 95.90, 92.32, 86.96, 95.52, 87.60, 82.12),
            (0.0903, 0.0702, 0.0553, 0.0851, 0.0657, 0.0516, 0.0716, 0.0544, 0.0419),
        ),
        (
            (93.54, 93.94, 95.44, 90.72, 91.38, 92.12, 85.46, 84.24, 82.24),
            (0.1151, 0.0940, 0.0764, 0.1158, 0.1069, 0.0706, 0.0857, 0.0692, 0.0457),
            (97.42, 95.92, 94.38, 97.22, 97.06, 91.74, 96.18, 91.26, 86.88),
            (0.0964, 0.0757, 0.0604, 0.0969, 0.0908, 0.0562, 0.0762, 0.0582, 0.0469),
        ),
        (
            (94.82, 96.12, 97.44, 93.14, 93.46, 94.16, 88.72, 86.24, 83.54),
            (0.1259, 0.1037, 0.0858, 0.1163, 0.0962, 0.0793, 0.0935, 0.0764, 0.0624),
            (97.10, 97.48, 96.96, 96.82, 96.04, 93.96, 96.76, 93.52, 88.24),
            (0.1025, 0.0813, 0.0659, 0.0963, 0.0762, 0.0613, 0.0811, 0.0627, 0.0495),
        ),
        (
            (96.26, 97.48, 98.38, 94.36, 96.16, 96.70, 91.04, 91.08, 89.42),
            (0.1435, 0.1208, 0.1017, 0.1325, 0.1117, 0.0937, 0.1058, 0.0885, 0.0736),
            (96.18, 97.54, 98.04, 96.68, 97.38, 96.60, 96.98, 95.96, 91.30),
            (0.1117, 0.0903, 0.0743, 0.1049, 0.0845, 0.0691, 0.0883, 0.0695, 0.0558),
        ),
    ),
}


def _flatten():
    cells = {}
    for table, blocks in _RAW.items():
        layout = table_layout(table)
        for a, (ros_lv, ros_ln, rec_lv, rec_ln) in zip(layout.a_values, blocks, strict=True):
            for col, (x, n) in enumerate(itertools.product(layout.xs, layout.ns)):
                cells[(table, x, a, n, ROSENBLATT)] = (ros_lv[col], ros_ln[col])
                cells[(table, x, a, n, RECURSIVE)] = (rec_lv[col], rec_ln[col])
    return cells


#: (table, x, a, n, estimator) -> (coverage percent, averaged interval length)
REFERENCE_CELLS = _flatten()


def reference_cell(table: int, x, a: float, n: int, estimator: str):
    """Golden (coverage percent, averaged length) for one benchmark cell."""
    return REFERENCE_CELLS[(table, tuple(x), a, n, estimator)]
