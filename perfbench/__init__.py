"""End-to-end and per-layer benchmark for hypcert; entry point run.py."""
