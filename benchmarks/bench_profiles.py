"""Interleave profile fingerprints — the profile byte gate.

Writes ``results/profiles.sha256``: one line per full-scale analog with
its static branch count, pair count and the sha256 of
``profile.to_json()``.  The JSON carries every branch stat and pair count
in dict insertion order, so any drift in what the interleave analysis
counts, or in the order it first counts it, changes a line.
"""

import hashlib

from conftest import RESULTS_DIR, prewarm
from repro.workloads.suite import TABLE34_BENCHMARKS


def profile_lines(runner, names):
    lines = []
    for name in names:
        profile = runner.profile(name)
        digest = hashlib.sha256(profile.to_json().encode("utf-8")).hexdigest()
        lines.append(
            f"{name} {profile.static_branch_count} {len(profile.pairs)} "
            f"{digest}"
        )
    return lines


def test_profiles(benchmark, runner):
    prewarm(runner, TABLE34_BENCHMARKS)
    lines = benchmark.pedantic(
        lambda: profile_lines(runner, TABLE34_BENCHMARKS),
        rounds=1,
        iterations=1,
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "profiles.sha256").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )

    assert len(lines) == len(TABLE34_BENCHMARKS)
