"""Benchmark of the BugAssist reproduction (see run.py)."""
