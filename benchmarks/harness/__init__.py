"""End-to-end + per-layer benchmark of the Echo host runtime.

Run ``python3 -m benchmarks.harness`` from the repository root; see
``README.md`` in this directory for the metric glossary.
"""
