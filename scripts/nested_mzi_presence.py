#!/usr/bin/env python3
"""Nested Mach-Zehnder walkthrough: two-state vectors, arm weak values,
weak traces, and the primary/secondary presence classification."""

import numpy as np

from tsvflab import (
    build_nested_mzi,
    classify_presence,
    default_g_decade,
    detection_probabilities,
    network_overlap,
    qubit_pointer,
    slice_weak_values,
    two_state_vector,
    weak_trace_sweeps,
)

ARMS = ("A", "B", "C", "D", "E", "X")


def main() -> None:
    net = build_nested_mzi()
    print(f"<out|in> = {network_overlap(net):.6f}")
    print("detector probabilities:", {
        k: round(v, 6) for k, v in detection_probabilities(net).items()
    })

    for index in range(1, 4):
        tsv = two_state_vector(net, index)
        print(f"\nslice {index}:")
        for arm, forward in tsv.forward:
            backward = tsv.backward_amplitude(arm)
            print(f"  {arm}: forward {forward:+.4f}  backward {backward:+.4f}")
        values = slice_weak_values(net, index)
        print("  weak values:", {a: f"{w:+.4f}" for a, w in values.items()},
              " sum:", f"{sum(values.values()):.6f}")

    print("\nweak traces (qubit environments), g over one decade:")
    gs = default_g_decade(1e-2, 1e-3, 5)
    model = qubit_pointer()
    for arm, values in weak_trace_sweeps(net, ARMS, model, gs):
        print(f"  {arm}: {np.array(values).round(10)}")

    report = classify_presence(net, ARMS, model)
    print("\npresence classification:")
    for arm, presence in report.entries:
        order = "-" if presence.leading_order == float("inf") else f"{presence.leading_order:.3f}"
        print(f"  {arm}: order {order:<8} {presence.classification}")
    print(
        "\nthe traces in D and E are second order in g: infinitely weaker than"
        "\nA, B, C in the weak limit, but not absent like the unoccupied X."
    )


if __name__ == "__main__":
    main()
