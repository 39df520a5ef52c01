"""Benchmark of the psygat pipeline; entry point perfbench/run.py."""
