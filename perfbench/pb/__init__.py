"""Helpers of the Air-FedGA end-to-end benchmark (see perfbench/README.md)."""
