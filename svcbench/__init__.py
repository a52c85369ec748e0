"""Service benchmark for the repro job server (see README.md)."""
