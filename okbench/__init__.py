"""Benchmark of okselect's learners; the entry point is okbench/run.py."""
