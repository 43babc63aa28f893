"""End-to-end and per-layer benchmark of the fockstab CLI (see README.md)."""
