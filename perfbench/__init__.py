"""Benchmark harness for rkwave; see README.md in this directory."""
