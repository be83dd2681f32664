"""E4 — BER versus distance at several data rates (paper's range figure).

Full-chain Monte-Carlo BER across distance for 20, 80 and 160 Mbps
(QPSK at 10/40/80 Msym/s).  Expected shape: each curve is a cliff; the
cliff moves closer as rate rises (noise bandwidth grows), and the
20 Mbps link is still clean at 8 m — the paper's headline range class.
"""

from repro.channel.environment import Environment
from repro.core.link import LinkConfig
from repro.core.tag import TagConfig
from repro.sim.executor import BerSweepTask, SweepExecutor
from repro.sim.plotting import ascii_plot
from repro.sim.results import ResultTable

_DISTANCES_M = [2.0, 6.0, 10.0, 14.0, 18.0, 22.0]
_RATES = [
    ("20 Mbps", 10e6),
    ("80 Mbps", 40e6),
    ("160 Mbps", 80e6),
]
_SEED = 4


def _experiment():
    executor = SweepExecutor.from_env()
    curves = {}
    for label, symbol_rate in _RATES:
        task = BerSweepTask(
            config=LinkConfig(
                tag=TagConfig(symbol_rate_hz=symbol_rate, samples_per_symbol=4),
                environment=Environment.typical_office(),
            ),
            param="distance_m",
            target_errors=40,
            max_bits=24_000,
            bits_per_frame=3000,
            # whole-budget fused kernel: bit-identical to serial, faster
            link_backend="fused",
        )
        report = executor.run(_DISTANCES_M, task, seed=_SEED)
        # (floored point estimate for log plotting, Wilson upper bound)
        curves[label] = [
            (max(estimate.ber, 1e-6), estimate.wilson_upper_bound())
            for estimate in report.metrics
        ]
    return curves


def test_e4_ber_vs_distance(once):
    curves = once(_experiment)

    table = ResultTable(
        "E4: BER vs distance per data rate (QPSK; point / Wilson-95% upper)",
        ["distance_m"] + [f"{label} ({kind})" for label in curves
                          for kind in ("ber", "ub")],
    )
    for i, distance in enumerate(_DISTANCES_M):
        row = []
        for label in curves:
            ber, upper = curves[label][i]
            row += [ber, round(upper, 6)]
        table.add_row(distance, *row)
    print()
    print(table.to_text())
    print()
    print(
        ascii_plot(
            {
                label: (_DISTANCES_M, [ber for ber, _ in points])
                for label, points in curves.items()
            },
            log_y=True,
            title="E4: BER vs distance",
            x_label="distance [m]",
            y_label="BER",
        )
    )

    def range_at(label, threshold=1e-3):
        # The statistically honest cliff: a point that stopped on the
        # bit budget (or saw zero errors) reports a flattering raw BER,
        # so the usable-range decision uses the Wilson upper bound.
        uppers = [upper for _, upper in curves[label]]
        usable = [d for d, ub in zip(_DISTANCES_M, uppers) if ub <= threshold]
        return max(usable) if usable else 0.0

    r20, r80, r160 = (range_at(label) for label, _ in _RATES)
    # the cliff moves in as the rate rises
    assert r20 >= r80 >= r160
    # the paper's class of operating point: clean at >= 8 m at 20 Mbps
    assert r20 >= 10.0
    # the fastest rate still works at short range (Wilson upper bound)
    assert curves["160 Mbps"][0][1] < 1e-3
