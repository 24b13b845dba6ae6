#!/usr/bin/env python3
"""Multimedia streaming shoot-out (the paper's Fig 4.1 scenario).

Streams the same CBR "video call" to a mobile performing six handoffs
under each of the four mobility schemes and prints the QoS comparison —
the reproduction of the paper's headline claims.

Run:  python examples/multimedia_streaming.py
"""

from repro.experiments.baselines import SCHEMES, roam
from repro.metrics import format_table


def main() -> None:
    print("Streaming 200 kbit/s CBR to a mobile doing 6 handoffs (2 s apart)\n")
    rows = []
    for name, scheme in SCHEMES.items():
        metrics = roam(scheme(), handoffs=6, handoff_interval=2.0, duration=16.0)
        rows.append(
            [
                name,
                f"{metrics['loss_rate']:.4f}",
                f"{metrics['mean_delay'] * 1e3:.1f}",
                f"{metrics['jitter'] * 1e3:.2f}",
                f"{metrics['max_gap'] * 1e3:.0f}",
                int(metrics["duplicates"]),
            ]
        )
    print(
        format_table(
            ["scheme", "loss", "delay_ms", "jitter_ms", "max_gap_ms", "dups"],
            rows,
            title="QoS during handoffs, per mobility scheme",
        )
    )
    print(
        "\nReading: Mobile IP drops packets during every re-registration and"
        "\npays the HA triangle in delay; Cellular IP hard handoff loses the"
        "\npackets in flight below the crossover; semisoft fixes loss with"
        "\nduplicate packets; the paper's RSMC buffers at the domain root --"
        "\nno loss, no duplicates, a small delay bump while the buffer flushes."
    )


if __name__ == "__main__":
    main()
